package server

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// One submit pipeline, held on the source of this package and of
// internal/shardrpc:
//
//  1. The fence check, the ledger commit, the refund and the store append
//     are the submit path's safety stages. Each is called from exactly one
//     place in this package's non-test code, so no entry — shardrpc, the
//     charge endpoint, or any role's public API — reaches the ledger or
//     the store around one of them. A second call site is a second
//     pipeline.
//  2. The frontend batches writes by node: internal/shardrpc has one
//     queue type (nodeQueue's lanes) and no per-shard submit or charge
//     queue beside it — no *Batcher type, and no other type with a
//     queue slice.

// pipelineStages are the calls rule 1 counts, by method name.
var pipelineStages = []string{"ChargeShards", "Refund", "AppendShardBatch", "checkFence"}

// guardSources reads the non-test Go files of dir, keyed by path.
func guardSources(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
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

// parseAll parses srcs in path order.
func parseAll(t *testing.T, fset *token.FileSet, srcs map[string]string) []*ast.File {
	t.Helper()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return files
}

// pipelineViolations describes every breach of the two rules in the
// given sources of this package (server) and of internal/shardrpc
// (rpc).
func pipelineViolations(t *testing.T, server, rpc map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var bad []string
	sites := make(map[string][]string)
	for _, f := range parseAll(t, fset, server) {
		ast.Inspect(f, func(n ast.Node) bool {
			// A selector names the stage whether it is called or taken as a
			// method value; declarations are identifiers, not selectors.
			if sel, ok := n.(*ast.SelectorExpr); ok {
				sites[sel.Sel.Name] = append(sites[sel.Sel.Name], fset.Position(sel.Pos()).String())
			}
			return true
		})
	}
	for _, stage := range pipelineStages {
		if got := sites[stage]; len(got) != 1 {
			bad = append(bad, fmt.Sprintf("want exactly one call of %s in internal/server, found %d: %s", stage, len(got), strings.Join(got, ", ")))
		}
	}
	for _, f := range parseAll(t, fset, rpc) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if strings.HasSuffix(strings.ToLower(ts.Name.Name), "batcher") {
				bad = append(bad, fmt.Sprintf("%s: %s is a per-shard queue type beside the node queue", fset.Position(ts.Pos()), ts.Name.Name))
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || ts.Name.Name == "lane" {
				return true
			}
			for _, field := range st.Fields.List {
				if _, slice := field.Type.(*ast.ArrayType); !slice {
					continue
				}
				for _, name := range field.Names {
					if name.Name == "queue" {
						bad = append(bad, fmt.Sprintf("%s: %s queues records beside the node queue", fset.Position(name.Pos()), ts.Name.Name))
					}
				}
			}
			return true
		})
	}
	return bad
}

func TestOneSubmitPipeline(t *testing.T) {
	for _, v := range pipelineViolations(t, guardSources(t, "."), guardSources(t, "../shardrpc")) {
		t.Error(v)
	}
}

// budgetBatcherSource is the per-budget-shard charge queue the node
// queue replaced, as it was declared.
const budgetBatcherSource = `
type budgetBatcher struct {
	shard  int
	client *Client

	mu      sync.Mutex
	queue   []*pendingCharge
	running bool
}
`

// TestOneSubmitPipelineCatches: the guard fails on each mutation it is
// there to catch — among them the shape of a pipeline forked for node
// calls (a second AppendShardBatch and a second ChargeShards beside the
// shared ones). A mutation that no longer applies to the source fails
// too, so the guard cannot quietly stop being checked.
func TestOneSubmitPipelineCatches(t *testing.T) {
	for _, m := range []struct {
		name, file string
		edits      []string // old, new, old, new, ...
	}{
		{"a second AppendShardBatch call", "submit.go", []string{
			"appendSection() // the last (usually the only) one inline",
			"sec.counts, sec.aerr = h.local.AppendShardBatch(sec.shard, sec.survivors)"}},
		{"a second ChargeShards call", "cluster.go", []string{
			"outs, err := n.commitCharges(byShard)", "outs, err := n.budget.ChargeShards(byShard)"}},
		{"a restored budgetBatcher", "../shardrpc/budget.go", []string{
			"var _ budget.Charger = (*RemoteCharger)(nil)",
			"var _ budget.Charger = (*RemoteCharger)(nil)\n" + budgetBatcherSource}},
		{"a second fence check", "host.go", []string{
			"return shardrpc.Meta{TotalShards: h.total, OwnedShards: owned}",
			"_ = h.checkFence(0, 0, 0)\n\treturn shardrpc.Meta{TotalShards: h.total, OwnedShards: owned}"}},
	} {
		t.Run(m.name, func(t *testing.T) {
			server, rpc := guardSources(t, "."), guardSources(t, "../shardrpc")
			srcs, file := server, m.file
			if strings.HasPrefix(file, "../shardrpc/") {
				srcs, file = rpc, filepath.Join("..", "shardrpc", strings.TrimPrefix(file, "../shardrpc/"))
			}
			for i := 0; i < len(m.edits); i += 2 {
				if !strings.Contains(srcs[file], m.edits[i]) {
					t.Fatalf("%s no longer contains %q: update the mutation", file, m.edits[i])
				}
				srcs[file] = strings.Replace(srcs[file], m.edits[i], m.edits[i+1], 1)
			}
			bad := pipelineViolations(t, server, rpc)
			if len(bad) == 0 {
				t.Fatal("the guard passed the mutated source")
			}
			t.Log(strings.Join(bad, "; "))
		})
	}
}
