// Package server implements gluenaild: a multi-session network front end
// over a gluenail.System. Sessions speak a length-prefixed JSON protocol;
// reads execute on MVCC snapshots (never blocking, never blocked by, the
// single writer), writes serialize through the system's WAL group-commit
// path, and the PR 5 execution governor is repurposed as per-request QoS:
// per-session budgets and admission control on concurrent statements.
package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"gluenail"
	"gluenail/internal/term"
)

// Frame layout: a 4-byte big-endian payload length followed by that many
// bytes of JSON. MaxFrame bounds a single request or response; a peer
// announcing a larger frame is cut off (a corrupt length would otherwise
// read gigabytes).
const MaxFrame = 16 << 20

// WriteFrame writes one length-prefixed JSON message.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed JSON message into v.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}

// Request is one client statement. Op selects the operation; the other
// fields are its operands (unused fields stay empty):
//
//	hello                     — handshake; returns server info and the CSN
//	query    Goals[, Module]  — evaluate a goal conjunction on a snapshot
//	prepare  Name, Goals[, Module] — compile and remember a query
//	execute  Name             — run a prepared query on a snapshot
//	begin                     — open a read transaction (pin one snapshot)
//	end                       — close the read transaction
//	assert   Rel, Rows        — insert EDB facts (write; live system)
//	retract  Rel, Rows        — delete EDB facts (write; live system)
//	load     Src              — load Glue/NAIL! source (write; live system)
//	relation Rel, Arity       — dump an EDB relation from a snapshot
//	stats                     — server and plan-cache counters
//	close    —                — end the session
type Request struct {
	Op     string        `json:"op"`
	ID     uint64        `json:"id"`
	Module string        `json:"module,omitempty"`
	Goals  string        `json:"goals,omitempty"`
	Name   string        `json:"name,omitempty"`
	Rel    *WireValue    `json:"rel,omitempty"`
	Arity  int           `json:"arity,omitempty"`
	Rows   [][]WireValue `json:"rows,omitempty"`
	Src    string        `json:"src,omitempty"`
}

// Response answers the request with the same ID. Exactly one of Err or
// the payload fields is meaningful; OK distinguishes them.
type Response struct {
	ID   uint64        `json:"id"`
	OK   bool          `json:"ok"`
	Err  *WireError    `json:"error,omitempty"`
	Vars []string      `json:"vars,omitempty"`
	Rows [][]WireValue `json:"rows,omitempty"`
	// CSN reports the snapshot a read executed at (query/execute/relation/
	// begin) or the current commit sequence number (hello/stats).
	CSN uint64 `json:"csn,omitempty"`
	// Hello / stats payloads.
	Server   string            `json:"server,omitempty"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Info     map[string]string `json:"info,omitempty"`
}

// Error codes. Every GovernorError sentinel maps to its own code so
// clients can classify failures without parsing messages; the remaining
// codes cover protocol and server states.
const (
	CodeCanceled     = "canceled"
	CodeTimeout      = "timeout"
	CodeMemoryBudget = "memory_budget"
	CodeDepthLimit   = "depth_limit"
	CodeLoopLimit    = "loop_limit"
	CodePanic        = "panic"
	CodePoisoned     = "poisoned"
	CodeBadRequest   = "bad_request"   // malformed operands or unknown op
	CodeQueryError   = "query_error"   // parse/compile/semantic failure
	CodeReadOnlyTxn  = "read_only_txn" // write attempted inside begin/end
	CodeAdmission    = "admission"     // too many concurrent statements
	CodeShutdown     = "shutting_down" // server is draining
	CodeDiskFault    = "disk_fault"    // an I/O fault; the store is read-only degraded
	CodeCorrupt      = "corrupt"       // stored bytes failed checksum verification
)

// WireError is the error payload: a stable code, the human-readable
// message, and — for governed failures — the procedure and statement that
// tripped the limit.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Proc    string `json:"proc,omitempty"`
	Stmt    string `json:"stmt,omitempty"`
}

func (e *WireError) Error() string {
	return fmt.Sprintf("%s (%s)", e.Message, e.Code)
}

// ToWireError maps any server-side failure to its wire form. Governed
// failures keep their classification and location; storage faults map to
// their own codes whether or not the governor wrapped them (a degraded
// write fails directly with ErrDiskFault, a corrupt block read inside a
// query arrives wrapped in a GovernorError); everything else becomes
// CodeQueryError (the statement failed) with the message intact.
func ToWireError(err error) *WireError {
	var we *WireError
	if errors.As(err, &we) {
		return we
	}
	var ge *gluenail.GovernorError
	if errors.As(err, &ge) {
		return &WireError{Code: governorCode(ge), Message: ge.Error(), Proc: ge.Proc, Stmt: ge.Stmt}
	}
	if code := storageCode(err); code != "" {
		return &WireError{Code: code, Message: err.Error()}
	}
	return &WireError{Code: CodeQueryError, Message: err.Error()}
}

// storageCode classifies a storage-fault error chain; "" means neither
// sentinel is present.
func storageCode(err error) string {
	switch {
	case errors.Is(err, gluenail.ErrCorrupt):
		return CodeCorrupt
	case errors.Is(err, gluenail.ErrDiskFault):
		return CodeDiskFault
	default:
		return ""
	}
}

// governorCode maps a GovernorError's sentinel to its wire code.
func governorCode(ge *gluenail.GovernorError) string {
	switch {
	case errors.Is(ge.Limit, gluenail.ErrCanceled):
		return CodeCanceled
	case errors.Is(ge.Limit, gluenail.ErrTimeout):
		return CodeTimeout
	case errors.Is(ge.Limit, gluenail.ErrMemoryBudget):
		return CodeMemoryBudget
	case errors.Is(ge.Limit, gluenail.ErrDepthLimit):
		return CodeDepthLimit
	case errors.Is(ge.Limit, gluenail.ErrLoopLimit):
		return CodeLoopLimit
	case errors.Is(ge.Limit, gluenail.ErrPoisoned):
		return CodePoisoned
	default:
		if code := storageCode(ge.Limit); code != "" {
			return code
		}
		return CodePanic
	}
}

// WireValue is the JSON encoding of one ground term. Kind tags keep the
// four kinds unambiguous; floats travel as strconv strings so NaN, the
// infinities, and every bit pattern round-trip exactly (JSON numbers
// cannot carry them). A compound term's functor is itself a value (HiLog
// functors may be compound), so it nests.
type WireValue struct {
	K    string      `json:"k"`              // "i" | "f" | "s" | "c"
	I    int64       `json:"i,omitempty"`    // K == "i"
	F    string      `json:"f,omitempty"`    // K == "f": strconv 'g' -1
	S    string      `json:"s,omitempty"`    // K == "s"
	Fn   *WireValue  `json:"fn,omitempty"`   // K == "c"
	Args []WireValue `json:"args,omitempty"` // K == "c"
}

// EncodeValue converts a term value to its wire form.
func EncodeValue(v term.Value) WireValue {
	switch v.Kind() {
	case term.Int:
		return WireValue{K: "i", I: v.Int()}
	case term.Float:
		return WireValue{K: "f", F: strconv.FormatFloat(v.Float(), 'g', -1, 64)}
	case term.Str:
		return WireValue{K: "s", S: v.Str()}
	default:
		fn := EncodeValue(v.Functor())
		args := make([]WireValue, v.NumArgs())
		for i := range args {
			args[i] = EncodeValue(v.Arg(i))
		}
		return WireValue{K: "c", Fn: &fn, Args: args}
	}
}

// DecodeValue converts a wire value back to a term value.
func DecodeValue(w WireValue) (term.Value, error) {
	switch w.K {
	case "i":
		return term.NewInt(w.I), nil
	case "f":
		f, err := strconv.ParseFloat(w.F, 64)
		if err != nil {
			return term.Value{}, fmt.Errorf("server: bad float %q: %v", w.F, err)
		}
		return term.NewFloat(f), nil
	case "s":
		return term.Intern(w.S), nil
	case "c":
		if w.Fn == nil {
			return term.Value{}, fmt.Errorf("server: compound value without functor")
		}
		fn, err := DecodeValue(*w.Fn)
		if err != nil {
			return term.Value{}, err
		}
		args := make([]term.Value, len(w.Args))
		for i, a := range w.Args {
			v, err := DecodeValue(a)
			if err != nil {
				return term.Value{}, err
			}
			args[i] = v
		}
		return term.NewCompound(fn, args...), nil
	default:
		return term.Value{}, fmt.Errorf("server: unknown value kind %q", w.K)
	}
}

// EncodeRows converts result rows to wire form.
func EncodeRows(rows [][]gluenail.Value) [][]WireValue {
	out := make([][]WireValue, len(rows))
	for i, row := range rows {
		wr := make([]WireValue, len(row))
		for j, v := range row {
			wr[j] = EncodeValue(v)
		}
		out[i] = wr
	}
	return out
}

// DecodeRows converts wire rows to the []any rows Assert/Retract take.
func DecodeRows(rows [][]WireValue) ([][]any, error) {
	out := make([][]any, len(rows))
	for i, row := range rows {
		r := make([]any, len(row))
		for j, w := range row {
			v, err := DecodeValue(w)
			if err != nil {
				return nil, err
			}
			r[j] = v
		}
		out[i] = r
	}
	return out, nil
}
