package budget

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// One ledger encoding, held on this package's own source: the ledger
// writes one binary record per charged batch, refund or snapshot, and
// JSON is only read, from ledgers written before the binary record
// (converted on open). No non-test file calls encoding/json's Marshal,
// MarshalIndent or NewEncoder, under whatever name it imports the
// package.

// jsonWriters are the encoding/json functions that would make a second
// write encoding.
var jsonWriters = map[string]bool{"Marshal": true, "MarshalIndent": true, "NewEncoder": true}

// ledgerEncodingViolations parses the given non-test sources and
// describes every call of a jsonWriters function.
func ledgerEncodingViolations(t *testing.T, srcs map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var bad []string
	for name, src := range srcs {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/json" {
				local = "json"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !jsonWriters[sel.Sel.Name] {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == local {
				bad = append(bad, fmt.Sprintf("%s: encoding/json.%s is a JSON write path in internal/budget", fset.Position(sel.Pos()), sel.Sel.Name))
			}
			return true
		})
	}
	return bad
}

// packageSources reads this package's non-test Go files.
func packageSources(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	srcs := make(map[string]string)
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[p] = string(b)
	}
	return srcs
}

func TestOneLedgerEncoding(t *testing.T) {
	for _, v := range ledgerEncodingViolations(t, packageSources(t)) {
		t.Error(v)
	}
}

// TestOneLedgerEncodingCatches: the guard fails on each mutation it is
// there to catch. A mutation that no longer applies to the source fails
// too, so the guard cannot quietly stop being checked.
func TestOneLedgerEncodingCatches(t *testing.T) {
	for _, m := range []struct {
		name, file string
		edits      []string // old, new, old, new, ...
	}{
		{"a flush marshals its records", "ledger.go", []string{
			"l.buf = appendLedgerRecord(l.buf[:0], recs)", "l.buf, _ = json.Marshal(recs)"}},
		{"a rewrite streams JSON", "ledger.go", []string{
			"return nl.Append(l.buf)", "return json.NewEncoder(nil).Encode(l.buf)"}},
		{"an indented snapshot under another import name", "ledger.go", []string{
			"\t\"encoding/json\"", "\tenc \"encoding/json\"",
			"l.buf = appendLedgerRecord(l.buf[:0], []walRecord{{T: walSnapshot, Snapshot: accounts}})",
			"l.buf, _ = enc.MarshalIndent(accounts, \"\", \" \")"}},
	} {
		t.Run(m.name, func(t *testing.T) {
			srcs := packageSources(t)
			for i := 0; i < len(m.edits); i += 2 {
				if !strings.Contains(srcs[m.file], m.edits[i]) {
					t.Fatalf("%s no longer contains %q: update the mutation", m.file, m.edits[i])
				}
				srcs[m.file] = strings.Replace(srcs[m.file], m.edits[i], m.edits[i+1], 1)
			}
			bad := ledgerEncodingViolations(t, srcs)
			if len(bad) == 0 {
				t.Fatal("the guard passed the mutated source")
			}
			t.Log(strings.Join(bad, "; "))
		})
	}
}
