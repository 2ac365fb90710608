package ingest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// One response record in ingest, held on this package's own source:
//
//  1. encodeResponse is the only function that encodes a response, and
//     it makes the binary record alone: exactly one AppendBinary, no
//     JSON encode.
//  2. The fold's tail calls no encoder for a record that is binary
//     already: every function writeSnapshot reaches that calls
//     encodeResponse first returns such a record unchanged.

// nonResponseMarshals are the json.Marshal arguments in this package
// that are not responses: the layout marker and a snapshot header (as
// go/types prints them).
var nonResponseMarshals = map[string]bool{"layout{…}": true, "&hdr": true}

// encodeCall names the response encoding call is, or returns "".
func encodeCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch name := sel.Sel.Name; name {
	case "AppendBinary", "MarshalBinary":
		return name
	case "Marshal", "MarshalIndent", "NewEncoder":
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "json" {
			return ""
		}
		if name == "Marshal" && len(call.Args) == 1 && nonResponseMarshals[types.ExprString(call.Args[0])] {
			return ""
		}
		return "json." + name
	}
	return ""
}

// countCalls counts the calls under n that encodeCall names want, or,
// for any other want, the calls of a function or method of that name.
func countCalls(n ast.Node, want string) int {
	count := 0
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := encodeCall(call)
		if name == "" {
			switch f := call.Fun.(type) {
			case *ast.Ident:
				name = f.Name
			case *ast.SelectorExpr:
				name = f.Sel.Name
			}
		}
		if name == want {
			count++
		}
		return true
	})
	return count
}

// mentions reports whether an identifier under any of nodes is named
// name.
func mentions(name string, nodes ...ast.Node) bool {
	found := false
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
	}
	return found
}

// parseFuncs parses the given non-test sources and indexes their
// functions and methods by name.
func parseFuncs(t *testing.T, srcs map[string]string) map[string][]*ast.FuncDecl {
	t.Helper()
	fset := token.NewFileSet()
	funcs := make(map[string][]*ast.FuncDecl)
	for name, src := range srcs {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs[fd.Name.Name] = append(funcs[fd.Name.Name], fd)
			}
		}
	}
	return funcs
}

// reachable lists the functions root refers to, directly or through
// others — calls and method values alike, matched by name.
func reachable(funcs map[string][]*ast.FuncDecl, root string) []string {
	seen := map[string]bool{root: true}
	for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
		for _, fd := range funcs[queue[0]] {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && funcs[id.Name] != nil && !seen[id.Name] {
					seen[id.Name] = true
					queue = append(queue, id.Name)
				}
				return true
			})
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	return out
}

// testsBinary reports whether cond holds an == comparison with
// ResponseBinaryTag and no != one: it is true of a binary record.
func testsBinary(cond ast.Expr) bool {
	eq, ne := false, false
	ast.Inspect(cond, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) && mentions("ResponseBinaryTag", be.X, be.Y) {
			eq = eq || be.Op == token.EQL
			ne = ne || be.Op == token.NEQ
		}
		return true
	})
	return eq && !ne
}

// returnsRecordFirst reports whether fd, before any statement that
// calls encodeResponse, returns its first parameter unchanged when the
// record is binary (its first byte is ResponseBinaryTag).
func returnsRecordFirst(fd *ast.FuncDecl) bool {
	if len(fd.Type.Params.List) == 0 || len(fd.Type.Params.List[0].Names) == 0 {
		return false
	}
	rec := fd.Type.Params.List[0].Names[0].Name
	for _, st := range fd.Body.List {
		if is, ok := st.(*ast.IfStmt); ok && is.Init == nil && testsBinary(is.Cond) && len(is.Body.List) == 1 {
			if ret, ok := is.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 2 &&
				types.ExprString(ret.Results[0]) == rec && types.ExprString(ret.Results[1]) == "nil" {
				return true
			}
		}
		if countCalls(st, "encodeResponse") > 0 {
			return false
		}
	}
	return false
}

// recordViolations checks both rules and describes each breach.
func recordViolations(funcs map[string][]*ast.FuncDecl) []string {
	var bad []string
	for name, decls := range funcs {
		for _, fd := range decls {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && name != "encodeResponse" {
					if e := encodeCall(call); e != "" {
						bad = append(bad, fmt.Sprintf("%s encodes a response (%s) outside encodeResponse", name, e))
					}
				}
				return true
			})
		}
	}
	if len(funcs["encodeResponse"]) != 1 {
		return append(bad, "want exactly one encodeResponse")
	}
	enc := funcs["encodeResponse"][0].Body
	if countCalls(enc, "AppendBinary") != 1 {
		bad = append(bad, "encodeResponse must hold exactly one AppendBinary")
	}
	for _, name := range []string{"json.Marshal", "json.MarshalIndent", "json.NewEncoder"} {
		if countCalls(enc, name) > 0 {
			bad = append(bad, "encodeResponse must not encode JSON ("+name+")")
		}
	}
	for _, name := range reachable(funcs, "writeSnapshot") {
		for _, fd := range funcs[name] {
			if countCalls(fd.Body, "encodeResponse") > 0 && !returnsRecordFirst(fd) {
				bad = append(bad, fmt.Sprintf("the fold reaches %s, which encodes a record without first returning one that is binary already", name))
			}
		}
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

func TestOneResponseRecord(t *testing.T) {
	for _, v := range recordViolations(parseFuncs(t, packageSources(t))) {
		t.Error(v)
	}
}

// TestOneResponseRecordCatches: the guard fails on each mutation it is
// there to catch. A mutation that no longer applies to the source fails
// too, so the guard cannot quietly stop being checked.
func TestOneResponseRecordCatches(t *testing.T) {
	for _, m := range []struct{ name, file, old, new string }{
		{"a commit marshals the response itself", "ingest.go",
			"req.recs, err = encodeResponse(req.recs, &rs[i])", "req.recs, err = json.Marshal(&rs[i])"},
		{"a second binary encoder", "commit.go",
			"a.add(r.recs[start:end])", "rec, _ := r.resps[i].AppendBinary(nil)\n\t\t\ta.add(rec)"},
		{"marshal hoisted above the JSON branch", "ingest.go",
			"\treturn r.AppendBinary(b)\n", "\tif _, err := json.Marshal(r); err != nil {\n\t\treturn nil, err\n\t}\n\treturn r.AppendBinary(b)\n"},
		{"a restored JSON encode", "ingest.go",
			"\treturn r.AppendBinary(b)\n", "\tif r.Obfuscated {\n\t\tj, err := json.Marshal(r)\n\t\treturn append(b, j...), err\n\t}\n\treturn r.AppendBinary(b)\n"},
		{"JSON encoding instead of binary", "ingest.go",
			"\treturn r.AppendBinary(b)\n", "\tj, err := json.Marshal(r)\n\treturn append(b, j...), err\n"},
		{"the fold encodes its tail", "snapshot.go",
			"rec, err := toCodec(a.rec(i))", "rec, err := encodeResponse(nil, decoded(a.rec(i)))"},
		{"toCodec re-encodes a record already in the codec", "snapshot.go",
			"rec[0] == survey.ResponseBinaryTag {\n\t\treturn rec, nil\n\t}", "rec[0] == survey.ResponseBinaryTag {\n\t}"},
		{"toCodec passes JSON records through", "snapshot.go",
			"rec[0] == survey.ResponseBinaryTag {\n\t\treturn rec, nil\n\t}", "rec[0] != survey.ResponseBinaryTag {\n\t\treturn rec, nil\n\t}"},
	} {
		t.Run(m.name, func(t *testing.T) {
			srcs := packageSources(t)
			if !strings.Contains(srcs[m.file], m.old) {
				t.Fatalf("%s no longer contains %q: update the mutation", m.file, m.old)
			}
			srcs[m.file] = strings.Replace(srcs[m.file], m.old, m.new, 1)
			bad := recordViolations(parseFuncs(t, srcs))
			if len(bad) == 0 {
				t.Fatal("the guard passed the mutated source")
			}
			t.Log(strings.Join(bad, "; "))
		})
	}
}
