package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// One mechanism per question and level, held on the module's own
// source: (*Schedule).Mechanism is the one function that reads σ, Δ or
// the randomized-response ε off a Schedule and builds the dp mechanism
// from them, so the noise a client adds, the ρ a ledger charges and the
// σ an estimator assumes cannot drift apart. Outside package dp (the
// mechanisms themselves) the guard reports three kinds of site:
//
//   - table: indexing a Sigma or RREpsilon field, or calling Sensitivity
//     or SigmaFor — reading the schedule or a question's Δ;
//   - build: calling dp.NewGaussian or dp.NewRandomizedResponse, or
//     writing a dp.Gaussian, dp.RandomizedResponse or dp.Event literal;
//   - field: any other read of a Sigma or Sensitivity field — the
//     ingredients of a ρ recomputed by hand.
//
// mechanismReaders lists every function allowed a kind of site, and why.
var mechanismReaders = map[string]struct{ kinds, why string }{
	"core.(*Schedule).Mechanism":        {"table build", "the mechanism function"},
	"core.(*Schedule).Validate":         {"table", "checks the table is monotone"},
	"core.(*Allocator).levelCosts":      {"field", "predicts accuracy from the reference mechanism's σ"},
	"aggregate.NewAccumulator":          {"field", "sizes the consistency slack from the reference mechanism's σ"},
	"aggregate.finalizeQuestion":        {"field", "reports each bin's σ from its mechanism"},
	"server.(*Server).handleSchedule":   {"table field", "publishes the table"},
	"client.(*Client).VerifySchedule":   {"table field", "compares the published table with its own"},
	"client.RenderLevelPicker":          {"table", "prints the table"},
	"experiments.(*TrialResult).Render": {"table", "prints the table"},
	"experiments.(*SweepResult).Cell":   {"field", "looks up a sweep cell by its own σ"},
	"experiments.RunLedgerGrowth":       {"field", "hands the reference mechanism's σ and Δ to the exact δ"},
	"experiments.RunNoiseComparison":    {"field", "hands the reference mechanism's σ and Δ to the exact δ"},
}

// mechanismViolations parses the given non-test sources (path → source)
// and describes every site outside its function's allowance, and every
// allowance naming a function the sources do not declare.
func mechanismViolations(t *testing.T, srcs map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var bad []string
	declared := map[string]bool{}
	for path, src := range srcs {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dpName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "loki/internal/dp" {
				dpName = "dp"
				if imp.Name != nil {
					dpName = imp.Name.Name
				}
			}
		}
		isDP := func(e ast.Expr, names ...string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || dpName == "" {
				return false
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != dpName {
				return false
			}
			for _, n := range names {
				if sel.Sel.Name == n {
					return true
				}
			}
			return false
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := f.Name.Name + "." + funcName(fn)
			declared[key] = true
			allowed := mechanismReaders[key].kinds
			report := func(n ast.Node, kind, what string) {
				if !strings.Contains(allowed, kind) {
					bad = append(bad, fmt.Sprintf("%s: %s %s (%s site); only (*Schedule).Mechanism reads the schedule and builds mechanisms",
						fset.Position(n.Pos()), key, what, kind))
				}
			}
			seen := map[*ast.SelectorExpr]bool{}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IndexExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Sigma" || sel.Sel.Name == "RREpsilon") {
						seen[sel] = true
						report(n, "table", "indexes ."+sel.Sel.Name)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Sensitivity" || sel.Sel.Name == "SigmaFor") {
						seen[sel] = true
						report(n, "table", "calls ."+sel.Sel.Name)
					}
					if isDP(n.Fun, "NewGaussian", "NewRandomizedResponse") {
						report(n, "build", "calls "+dpName+"."+n.Fun.(*ast.SelectorExpr).Sel.Name)
					}
				case *ast.CompositeLit:
					if isDP(n.Type, "Gaussian", "RandomizedResponse", "Event") {
						report(n, "build", "writes a "+dpName+"."+n.Type.(*ast.SelectorExpr).Sel.Name+" literal")
					}
				case *ast.SelectorExpr:
					if !seen[n] && (n.Sel.Name == "Sigma" || n.Sel.Name == "Sensitivity") {
						report(n, "field", "reads ."+n.Sel.Name)
					}
				}
				return true
			})
		}
	}
	for key := range mechanismReaders {
		if !declared[key] {
			bad = append(bad, fmt.Sprintf("mechanismReaders allows %s, which no longer exists", key))
		}
	}
	sort.Strings(bad)
	return bad
}

// funcName is a declaration's name with its receiver: "F", "(T).F" or
// "(*T).F".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fn.Name.Name
	}
	return fn.Name.Name
}

// moduleSources reads every non-test Go file of the module, keyed by its
// path from the module root, except package dp's own and the separate
// benchmark module's.
func moduleSources(t *testing.T) map[string]string {
	t.Helper()
	root := filepath.Join("..", "..")
	srcs := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel {
			case "benchmark", filepath.Join("internal", "dp"):
				return filepath.SkipDir
			}
			if strings.HasPrefix(d.Name(), ".") && rel != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs[filepath.ToSlash(rel)] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srcs["internal/core/obfuscator.go"]; !ok {
		t.Fatal("module walk did not reach internal/core/obfuscator.go")
	}
	return srcs
}

func TestOneMechanism(t *testing.T) {
	for _, v := range mechanismViolations(t, moduleSources(t)) {
		t.Error(v)
	}
}

// TestOneMechanismCatches: the guard fails on each mutation it is there
// to catch. A mutation that no longer applies to the source fails too,
// so the guard cannot quietly stop being checked.
func TestOneMechanismCatches(t *testing.T) {
	for _, m := range []struct {
		name, file string
		edits      []string // old, new, old, new, ...
	}{
		{"ObfuscateAnswer draws r.Normal with SigmaFor", "internal/core/obfuscator.go", []string{
			"\treturn m.Release(a, r)\n}",
			"\ta.Rating = r.Normal(a.Rating, o.schedule.SigmaFor(q, l))\n\treturn m.Release(a, r)\n}"}},
		{"ObfuscateAnswer scales the table's σ itself", "internal/core/obfuscator.go", []string{
			"\treturn m.Release(a, r)\n}",
			"\ta.Rating = r.Normal(a.Rating, o.schedule.Sigma[l]*q.Sensitivity()/ReferenceScaleWidth)\n\treturn m.Release(a, r)\n}"}},
		{"aggregate builds its own RandomizedResponse", "internal/aggregate/choice.go", []string{
			"\t\"loki/internal/core\"\n", "\t\"loki/internal/core\"\n\t\"loki/internal/dp\"\n",
			"m, err := schedule.Mechanism(q, core.Level(l))",
			"rr, err := dp.NewRandomizedResponse(schedule.RREpsilon[l], k); m := core.Mechanism{RR: rr}"}},
		{"the ledger recomputes ρ from σ", "internal/core/ledger.go", []string{
			"if err := lg.acct.Record(m.Event(",
			"ev := m.Event(\"\"); ev.Rho = ev.Sensitivity * ev.Sensitivity / (2 * ev.Sigma * ev.Sigma)\n\t\tif err := lg.acct.Record(m.Event("}},
		{"the ledger writes its own event", "internal/core/ledger.go", []string{
			"if err := lg.acct.Record(m.Event(",
			"if err := lg.acct.Record(dp.Event{Mechanism: \"gaussian\", Rho: m.Rho()}); err != nil {\n\t\t\treturn err\n\t\t}\n\t\tif err := lg.acct.Record(m.Event("}},
	} {
		t.Run(m.name, func(t *testing.T) {
			srcs := moduleSources(t)
			for i := 0; i < len(m.edits); i += 2 {
				if !strings.Contains(srcs[m.file], m.edits[i]) {
					t.Fatalf("%s no longer contains %q: update the mutation", m.file, m.edits[i])
				}
				srcs[m.file] = strings.Replace(srcs[m.file], m.edits[i], m.edits[i+1], 1)
			}
			bad := mechanismViolations(t, srcs)
			if len(bad) == 0 {
				t.Fatal("the guard passed the mutated source")
			}
			t.Log(strings.Join(bad, "; "))
		})
	}
}
