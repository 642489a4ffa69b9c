package gluenail

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Static checks enforced as failing tests so CI catches regressions: the
// root package's one entry point (TestLockVet, below), and I/O hygiene
// over the persistence packages, two rules:
//
//  1. No ignored Close/Sync results: a bare `x.Close()` or `x.Sync()`
//     expression (or defer/go) statement silently drops the error that
//     tells us a write never reached the device. Handle it or discard it
//     explicitly with `_ =`.
//  2. No direct package-os file I/O in wal/storage/disk: every byte those
//     packages move must route through the fsio seam, or fault injection
//     has blind spots.

// ioVetPackages lists the directories under rule 1; the bool marks the
// packages that must also route I/O through fsio (rule 2). fsio itself
// wraps package os, so it is exempt from rule 2.
var ioVetPackages = map[string]bool{
	"internal/wal":          true,
	"internal/storage":      true,
	"internal/storage/disk": true,
	"internal/storage/fsio": false,
}

// osFileIO is the package-os surface that bypasses the fsio seam.
var osFileIO = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "Rename": true,
	"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true,
	"MkdirTemp": true, "Truncate": true, "Chmod": true, "Symlink": true,
	"Link": true,
}

func TestIOVet(t *testing.T) {
	var violations []string
	for dir, sealed := range ioVetPackages {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			violations = append(violations, vetFile(fset, file, sealed)...)
		}
	}
	if len(violations) > 0 {
		t.Fatalf("I/O hygiene violations:\n  %s", strings.Join(violations, "\n  "))
	}
}

// vetFile returns rule violations in one parsed file.
func vetFile(fset *token.FileSet, file *ast.File, sealed bool) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	// closeOrSync reports whether call is a method call named Close/Sync
	// (either case — the packages use unexported helpers too).
	closeOrSync := func(call *ast.CallExpr) (string, bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 0 {
			return "", false
		}
		switch sel.Sel.Name {
		case "Close", "Sync", "close", "sync":
			return sel.Sel.Name, true
		}
		return "", false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, ok := closeOrSync(call); ok {
					report(n.Pos(), "result of %s() ignored; handle the error or discard it with `_ =`", name)
				}
			}
		case *ast.DeferStmt:
			if name, ok := closeOrSync(n.Call); ok {
				report(n.Pos(), "deferred %s() drops its error; wrap it in `defer func() { _ = x.%s() }()` or handle it", name, name)
			}
		case *ast.GoStmt:
			if name, ok := closeOrSync(n.Call); ok {
				report(n.Pos(), "go %s() drops its error", name)
			}
		case *ast.CallExpr:
			if !sealed {
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "os" && pkg.Obj == nil && osFileIO[sel.Sel.Name] {
					report(n.Pos(), "direct os.%s bypasses the fsio seam; route it through the store's fsio.FS", sel.Sel.Name)
				}
			}
		}
		return true
	})
	return out
}

// maxLockers bounds the root functions that lock System.mu: System.do, the
// one entry point every exported operation goes through, plus at most
// three named helpers that need the lock themselves.
const maxLockers = 4

// TestLockVet enforces the entry-point rule over the root package's
// non-test files: at most maxLockers functions lock System.mu, and no
// exported function or method locks it directly.
func TestLockVet(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if v := vetLocks(fset, files); len(v) > 0 {
		t.Fatalf("entry-point violations:\n  %s", strings.Join(v, "\n  "))
	}

	// The rule itself: an exported locker, a second field named mu, and a
	// fifth locking function are all caught.
	src := `package p
type System struct{ mu int }
type Other struct{ mu int }
func (s *System) Exported() { s.mu.Lock() }
func a(s *System) { s.mu.Lock() }
func b(s *System) { s.mu.Lock() }
func c(s *System) { s.mu.Lock() }
func d(s *System) { s.mu.Lock() }`
	f, err := parser.ParseFile(fset, "synthetic.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := vetLocks(fset, []*ast.File{f}); len(v) != 3 {
		t.Fatalf("rule found %d violations in the synthetic source, want 3: %v", len(v), v)
	}
}

// vetLocks returns the entry-point rule's violations in files. System must
// be the only type with a field named mu, so that any call x.mu.Lock() (or
// TryLock) is a lock of System.mu.
func vetLocks(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	var lockers []string
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name == "System" {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.Name == "mu" {
								out = append(out, fmt.Sprintf("%s: %s has a field named mu; only System may",
									fset.Position(name.Pos()), ts.Name.Name))
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Body == nil || !locksMu(d.Body) {
					continue
				}
				lockers = append(lockers, d.Name.Name)
				if d.Name.IsExported() {
					out = append(out, fmt.Sprintf("%s: exported %s locks System.mu directly; go through System.do",
						fset.Position(d.Pos()), d.Name.Name))
				}
			}
		}
	}
	if len(lockers) > maxLockers {
		out = append(out, fmt.Sprintf("%d functions lock System.mu (%s), want at most %d",
			len(lockers), strings.Join(lockers, ", "), maxLockers))
	}
	return out
}

// locksMu reports whether body calls Lock or TryLock on a field named mu.
func locksMu(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "TryLock") {
			if mu, ok := sel.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
				found = true
			}
		}
		return !found
	})
	return found
}
