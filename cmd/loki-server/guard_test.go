package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// One placement, held on the module's own source: placement.Manifest is
// the only source of placement.
//
//  1. The round-robin layout lives in internal/placement; shardrpc's
//     RoundRobinPlacement only forwards to it, for benchmark/, and no
//     other non-test code calls it.
//  2. shardrpc.Remote routes by one table built from a manifest: no
//     `placement []int` and no positional NewRemote in internal/shardrpc.
//  3. loki-server takes placement from -manifest alone: no positional
//     placement flag, and no -follow or -follower-id — a follower's
//     source is its shard's manifest primary, its ID its -advertise URL.

// moduleRoot is the loki module's directory, from this package's.
const moduleRoot = "../.."

// bannedFlags are the loki-server flag names rule 3 refuses.
var bannedFlags = map[string]bool{
	"peers": true, "node-index": true, "cluster-nodes": true, "cluster-shards": true,
	"follow": true, "follower-id": true,
}

// moduleSources reads every Go file of the module outside benchmark/ (a
// module of its own) and testdata, keyed by slash path from the root.
func moduleSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(moduleRoot, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "benchmark" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// calledName is the function or method name a call calls, or "".
func calledName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// placementViolations checks the three rules and describes each breach.
func placementViolations(t *testing.T, srcs map[string]string) []string {
	t.Helper()
	var bad []string
	fset := token.NewFileSet()
	for path, src := range srcs {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		test := strings.HasSuffix(path, "_test.go")
		inShardrpc := strings.HasPrefix(path, "internal/shardrpc/")
		inServerCmd := strings.HasPrefix(path, "cmd/loki-server/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !test && calledName(n) == "RoundRobinPlacement" {
					bad = append(bad, fmt.Sprintf("%s: a second caller of the round-robin layout", fset.Position(n.Pos())))
				}
				if !test && inServerCmd {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if name, err := strconv.Unquote(lit.Value); err == nil && bannedFlags[name] {
								bad = append(bad, fmt.Sprintf("%s: loki-server defines flag -%s; placement comes from -manifest", fset.Position(lit.Pos()), name))
							}
						}
					}
				}
			case *ast.Field:
				if inShardrpc && isIntSlice(n.Type) && hasName(n.Names, "placement") {
					bad = append(bad, fmt.Sprintf("%s: a second routing table (placement []int) in shardrpc", fset.Position(n.Pos())))
				}
			case *ast.ValueSpec:
				if inShardrpc && isIntSlice(n.Type) && hasName(n.Names, "placement") {
					bad = append(bad, fmt.Sprintf("%s: a second routing table (placement []int) in shardrpc", fset.Position(n.Pos())))
				}
			case *ast.FuncDecl:
				if inShardrpc && n.Recv == nil && n.Name.Name == "NewRemote" {
					bad = append(bad, fmt.Sprintf("%s: a positional NewRemote in shardrpc", fset.Position(n.Pos())))
				}
			}
			return true
		})
	}
	return bad
}

func isIntSlice(e ast.Expr) bool {
	at, ok := e.(*ast.ArrayType)
	if !ok || at.Len != nil {
		return false
	}
	id, ok := at.Elt.(*ast.Ident)
	return ok && id.Name == "int"
}

func hasName(names []*ast.Ident, want string) bool {
	for _, id := range names {
		if id.Name == want {
			return true
		}
	}
	return false
}

func TestOnePlacement(t *testing.T) {
	for _, v := range placementViolations(t, moduleSources(t)) {
		t.Error(v)
	}
}

// TestOnePlacementCatches: the guard fails on each mutation it is there
// to catch. A mutation that no longer applies to the source fails too,
// so the guard cannot quietly stop being checked.
func TestOnePlacementCatches(t *testing.T) {
	for _, m := range []struct{ name, file, old, new string }{
		{"a second round-robin caller", "cmd/loki-server/main.go",
			"owned := hostedShards(m, c.advertise, c.storePath)", "owned := shardrpc.RoundRobinPlacement(len(m.Shards), 1)[0]"},
		{"a placement table in shardrpc", "internal/shardrpc/remote.go",
			"type Remote struct {", "type Remote struct {\n\tplacement []int"},
		{"a positional NewRemote", "internal/shardrpc/remote.go",
			"type Remote struct {", "func NewRemote(clients []*Client) *Remote { return nil }\n\ntype Remote struct {"},
		{"a positional placement flag", "cmd/loki-server/main.go",
			`fs.StringVar(&c.clusterToken, "cluster-token",`, `fs.IntVar(&c.icfg.Shards, "cluster-shards", 8, "")` + "\n\t" + `fs.StringVar(&c.clusterToken, "cluster-token",`},
		{"a fixed follow source", "cmd/loki-server/main.go",
			`fs.StringVar(&c.clusterToken, "cluster-token",`, `fs.StringVar(&c.advertise, "follow", "", "")` + "\n\t" + `fs.StringVar(&c.clusterToken, "cluster-token",`},
		{"a follower id flag", "cmd/loki-server/main.go",
			`fs.StringVar(&c.clusterToken, "cluster-token",`, `fs.StringVar(&c.advertise, "follower-id", "", "")` + "\n\t" + `fs.StringVar(&c.clusterToken, "cluster-token",`},
	} {
		t.Run(m.name, func(t *testing.T) {
			srcs := moduleSources(t)
			if !strings.Contains(srcs[m.file], m.old) {
				t.Fatalf("%s no longer contains %q: update the mutation", m.file, m.old)
			}
			srcs[m.file] = strings.Replace(srcs[m.file], m.old, m.new, 1)
			bad := placementViolations(t, srcs)
			if len(bad) == 0 {
				t.Fatal("the guard passed the mutated source")
			}
			t.Log(strings.Join(bad, "; "))
		})
	}
}
