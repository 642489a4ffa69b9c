package gluenail

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gluenail/internal/term"
)

// CSV interchange for EDB relations: a pragmatic addition to §10's disk
// persistence, so data can come from and go to other tools. Fields are
// typed by content: integers, then floats, then strings; a field wrapped
// in single quotes is always a string ('42' loads as the string "42").

// LoadCSV reads CSV records from r into the named relation, creating it on
// first use, as one statement: every record must have the same width, and
// once the program is compiled that width must match the relation's edb
// declaration, as for Assert. Files past the bulk threshold take the
// engine's direct bulk path when the backend has one (the disk engine
// builds runs straight from the batch, bypassing the WAL); smaller files
// insert row at a time.
func (s *System) LoadCSV(relation string, r io.Reader) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var rows []term.Tuple
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("gluenail: csv %s record %d: %w", relation, len(rows)+1, err)
		}
		if len(rows) > 0 && len(rec) != len(rows[0]) {
			return fmt.Errorf("gluenail: csv %s record %d has %d fields, want %d",
				relation, len(rows)+1, len(rec), len(rows[0]))
		}
		tup := make(term.Tuple, len(rec))
		for i, f := range rec {
			tup[i] = csvValue(f)
		}
		rows = append(rows, tup)
	}
	return s.do(needStore, func() error { return s.insert(term.Intern(relation), rows) })
}

// LoadCSVFile reads a CSV file into the named relation.
func (s *System) LoadCSVFile(relation, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.LoadCSV(relation, f)
}

// csvValue types a CSV field: int, float, else string. Single quotes force
// a string and are stripped.
func csvValue(f string) term.Value {
	if len(f) >= 2 && f[0] == '\'' && f[len(f)-1] == '\'' {
		return term.Intern(f[1 : len(f)-1])
	}
	if i, err := strconv.ParseInt(f, 10, 64); err == nil {
		return term.NewInt(i)
	}
	if x, err := strconv.ParseFloat(f, 64); err == nil {
		return term.NewFloat(x)
	}
	return term.Intern(f)
}

// SaveCSV writes the named relation's tuples to w as CSV, sorted, one field
// per column. Compound values render in source syntax; strings that would
// re-load as numbers are single-quoted so a round trip preserves types.
func (s *System) SaveCSV(relation string, arity int, w io.Writer) error {
	rows, err := s.Relation(relation, arity)
	if err != nil {
		return err
	}
	if rows == nil {
		return fmt.Errorf("gluenail: no relation %s/%d", relation, arity)
	}
	cw := csv.NewWriter(w)
	for _, t := range rows {
		rec := make([]string, len(t))
		for i, v := range t {
			rec[i] = csvField(v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSVFile writes the relation to a CSV file.
func (s *System) SaveCSVFile(relation string, arity int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.SaveCSV(relation, arity, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func csvField(v Value) string {
	switch v.Kind() {
	case term.Int:
		return strconv.FormatInt(v.Int(), 10)
	case term.Float:
		s := strconv.FormatFloat(v.Float(), 'g', -1, 64)
		// Keep integral floats loading back as floats. Only values whose
		// rendering is an integer literal need the suffix: NaN and the
		// infinities already round-trip through ParseFloat, and "NaN.0"
		// would reload as a string.
		if _, err := strconv.ParseInt(s, 10, 64); err == nil {
			s += ".0"
		}
		return s
	case term.Str:
		s := v.Str()
		// Quote strings that would re-load as numbers (or as quoted
		// strings) to keep the round trip type-faithful.
		if _, err := strconv.ParseFloat(s, 64); err == nil ||
			(len(s) >= 2 && strings.HasPrefix(s, "'") && strings.HasSuffix(s, "'")) {
			return "'" + s + "'"
		}
		return s
	}
	return v.String()
}
