package server

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

// guardSources reads the Go files of dir — its test files too with
// tests set — keyed by path.
func guardSources(t *testing.T, dir string, tests bool) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	srcs := make(map[string]string)
	for _, p := range paths {
		if !tests && strings.HasSuffix(p, "_test.go") {
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
	for _, v := range pipelineViolations(t, guardSources(t, ".", false), guardSources(t, "../shardrpc", false)) {
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
			server, rpc := guardSources(t, ".", false), guardSources(t, "../shardrpc", false)
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

// One frontend read path and one system harness, held on the source of
// this package and of internal/shardrpc, and on the repository root:
//
//  1. A frontend revalidates its partial cache with one conditional call
//     per node (Remote.Partials). Nowhere, test files included, is there
//     a mergedRemoteEstimate or a Partial or PartialSince method on
//     Remote or Client; this package's non-test code makes no per-shard
//     partial fetch (a .Partial call, anything named PartialSince);
//     revalidateLocked starts no goroutine and uses no WaitGroup; and
//     internal/shardrpc's non-test code names no per-shard partial route,
//     only POST /shardrpc/v1/partial.
//  2. Every frontend reads through its cache: newFrontCache is called
//     once, in New, and nothing compares FrontendCacheTTL's sign.
//  3. A read body has one rendering (readShape.render): handleAggregate
//     and handleQuality call no writeJSON, and at most one composite
//     literal builds an AggregateResult.
//  4. Every system number comes from benchmark/: the repository root
//     holds no BENCH_*.json.

// readPathViolations describes every breach of the four rules in the
// given sources (test files among them) of this package (server) and of
// internal/shardrpc (rpc), and in the root directory.
func readPathViolations(t *testing.T, server, rpc map[string]string, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var bad []string
	flag := func(n ast.Node, format string, args ...any) {
		bad = append(bad, fset.Position(n.Pos()).String()+": "+fmt.Sprintf(format, args...))
	}
	named := func(e ast.Expr, name string) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name == name
		case *ast.SelectorExpr:
			return e.Sel.Name == name
		}
		return false
	}
	// fn names a function declaration the way the rules do: Recv.Name for
	// a method, Name otherwise.
	fn := func(fd *ast.FuncDecl) string {
		if fd.Recv == nil || len(fd.Recv.List) != 1 {
			return fd.Name.Name
		}
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
	isTest := func(f *ast.File) bool { return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") }

	serverFiles, rpcFiles := parseAll(t, fset, server), parseAll(t, fset, rpc)
	for _, f := range append(serverFiles[:len(serverFiles):len(serverFiles)], rpcFiles...) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "mergedRemoteEstimate" {
					flag(n, "mergedRemoteEstimate is a second frontend read path")
				}
			case *ast.FuncDecl:
				switch name := fn(n); name {
				case "Remote.Partial", "Remote.PartialSince", "Client.Partial", "Client.PartialSince":
					flag(n, "%s is a per-shard partial fetch beside the batched one", name)
				}
			}
			return true
		})
	}
	for _, f := range rpcFiles {
		if isTest(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				route, err := strconv.Unquote(lit.Value)
				if err == nil && strings.Contains(route, "/partial") && route != "/shardrpc/v1/partial" && route != "POST /shardrpc/v1/partial" {
					flag(n, "%q is a partial route beside POST /shardrpc/v1/partial", route)
				}
			}
			return true
		})
	}
	frontCaches, aggregates := 0, 0
	seen := map[string]bool{}
	for _, f := range serverFiles {
		if isTest(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn(fd)
			seen[name] = true
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if name == "Server.revalidateLocked" {
						flag(n, "revalidateLocked fans out per shard")
					}
				case *ast.Ident:
					if n.Name == "WaitGroup" && name == "Server.revalidateLocked" {
						flag(n, "revalidateLocked fans out per shard")
					}
					if n.Name == "PartialSince" {
						flag(n, "PartialSince is a per-shard partial fetch")
					}
				case *ast.CallExpr:
					switch {
					case named(n.Fun, "newFrontCache"):
						frontCaches++
						if name != "New" {
							flag(n, "the frontend cache is built outside New")
						}
					case named(n.Fun, "writeJSON") && (name == "Server.handleAggregate" || name == "Server.handleQuality"):
						flag(n, "%s encodes its own body", name)
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Partial" {
						flag(n, "a per-shard partial fetch")
					}
				case *ast.BinaryExpr:
					switch n.Op {
					case token.LSS, token.GTR, token.LEQ, token.GEQ:
						if named(n.X, "FrontendCacheTTL") || named(n.Y, "FrontendCacheTTL") {
							flag(n, "a branch on the frontend cache TTL's sign")
						}
					}
				case *ast.CompositeLit:
					if named(n.Type, "AggregateResult") {
						aggregates++
					}
				}
				return true
			})
		}
	}
	for _, name := range []string{"Server.revalidateLocked", "Server.handleAggregate", "Server.handleQuality", "New"} {
		if !seen[name] {
			bad = append(bad, fmt.Sprintf("no %s in internal/server: update the guard", name))
		}
	}
	if frontCaches != 1 {
		bad = append(bad, fmt.Sprintf("want one newFrontCache call in internal/server, found %d", frontCaches))
	}
	if aggregates > 1 {
		bad = append(bad, fmt.Sprintf("%d constructions of AggregateResult in internal/server", aggregates))
	}
	reports, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		bad = append(bad, r+": a committed bench report (benchmark/ is the harness)")
	}
	return bad
}

func TestOneFrontendReadPath(t *testing.T) {
	for _, v := range readPathViolations(t, guardSources(t, ".", true), guardSources(t, "../shardrpc", true), "../..") {
		t.Error(v)
	}
}

// TestOneFrontendReadPathCatches: the guard fails on each mutation it is
// there to catch, a restored per-shard partial route among them. A
// mutation that no longer applies to the source fails too.
func TestOneFrontendReadPathCatches(t *testing.T) {
	for _, m := range []struct {
		name, file string
		edits      []string // old, new, old, new, ...
	}{
		{"a mergedRemoteEstimate", "frontcache.go", []string{
			"const DefaultFrontendCacheTTL = 250 * time.Millisecond",
			"const DefaultFrontendCacheTTL = 250 * time.Millisecond\n\nfunc (s *Server) mergedRemoteEstimate() {}"}},
		{"a per-shard Client.Partial", "../shardrpc/client.go", []string{
			"// Meta fetches the node's shard ownership map.",
			"func (c *Client) Partial(shard int) (*Partial, error) { return nil, nil }\n\n// Meta fetches the node's shard ownership map."}},
		{"a Remote.PartialSince", "../shardrpc/remote.go", []string{
			"// partialCall is one node's share of a Partials round.",
			"func (r *Remote) PartialSince(shard int) {}\n\n// partialCall is one node's share of a Partials round."}},
		{"a per-shard fetch in the read path", "frontcache.go", []string{
			"fetched, errs := s.remote.Partials(sv.ID, cs.cursors)",
			"fetched, errs := s.remote.Partials(sv.ID, cs.cursors)\n\t_, _ = s.remote.Partial(0)"}},
		{"a goroutine in revalidateLocked", "frontcache.go", []string{
			"cs.bodies = [numReadShapes][]byte{}", "cs.bodies = [numReadShapes][]byte{}\n\tgo func() {}()"}},
		{"a WaitGroup in revalidateLocked", "frontcache.go", []string{
			"cs.bodies = [numReadShapes][]byte{}", "cs.bodies = [numReadShapes][]byte{}\n\tvar wg sync.WaitGroup\n\twg.Wait()"}},
		{"a second newFrontCache call", "server.go", []string{
			"s.cache = newFrontCache(ttl)", "s.cache = newFrontCache(ttl)\n\t\t_ = newFrontCache(ttl)"}},
		{"a branch on the cache TTL's sign", "server.go", []string{
			"ttl := max(cfg.FrontendCacheTTL, 0)", "ttl := cfg.FrontendCacheTTL\n\t\tif cfg.FrontendCacheTTL < 0 {\n\t\t\tttl = 0\n\t\t}"}},
		{"a read handler encoding its body", "handlers.go", []string{
			`s.serveRead(w, r.PathValue("id"), qualityShape)`, `writeJSON(w, http.StatusOK, nil)`}},
		{"a second AggregateResult", "read.go", []string{
			"out := &AggregateResult{", "_ = AggregateResult{}\n\tout := &AggregateResult{"}},
		{"a restored GET partial route", "../shardrpc/handler.go", []string{
			`h.mux.HandleFunc("POST /shardrpc/v1/partial", h.handlePartials)`,
			`h.mux.HandleFunc("POST /shardrpc/v1/partial", h.handlePartials)` + "\n\t" +
				`h.mux.HandleFunc("GET /shardrpc/v1/shards/{shard}/partial", h.handlePartials)`}},
		{"a committed BENCH report", "", nil},
	} {
		t.Run(m.name, func(t *testing.T) {
			server, rpc := guardSources(t, ".", true), guardSources(t, "../shardrpc", true)
			root := "../.."
			if m.file == "" {
				root = t.TempDir()
				if err := os.WriteFile(filepath.Join(root, "BENCH_cluster.json"), []byte("{}"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
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
			bad := readPathViolations(t, server, rpc, root)
			if len(bad) == 0 {
				t.Fatal("the guard passed the mutated source")
			}
			t.Log(strings.Join(bad, "; "))
		})
	}
}

// One publish verb, held on the non-test source of this package and of
// internal/shardrpc: every store decides whether a publish creates,
// leaves or replaces a definition, against the one it holds.
//
//  1. No caller here picks a verb for the stores by comparing
//     definitions: this package calls Fingerprint only where it keys fold
//     state (fingerprintFiles).
//  2. ReplaceSurvey, the second verb, names nothing in either package.

// fingerprintFiles are this package's files that key fold state by
// definition fingerprint.
var fingerprintFiles = map[string]bool{"live.go": true, "frontcache.go": true}

// publishViolations describes every breach of the two rules in the
// given sources of this package (server) and of internal/shardrpc (rpc).
func publishViolations(t *testing.T, server, rpc map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var bad []string
	for _, f := range parseAll(t, fset, server) {
		file := filepath.Base(fset.Position(f.Pos()).Filename)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || fingerprintFiles[file] {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Fingerprint" {
				bad = append(bad, fmt.Sprintf("%s: a definition fingerprinted outside the fold state", fset.Position(call.Pos())))
			}
			return true
		})
	}
	for _, f := range append(parseAll(t, fset, server), parseAll(t, fset, rpc)...) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "ReplaceSurvey" {
				bad = append(bad, fmt.Sprintf("%s: ReplaceSurvey is a second publish verb", fset.Position(id.Pos())))
			}
			return true
		})
	}
	return bad
}

func TestOnePublishVerb(t *testing.T) {
	for _, v := range publishViolations(t, guardSources(t, ".", false), guardSources(t, "../shardrpc", false)) {
		t.Error(v)
	}
}

// TestOnePublishVerbCatches: the guard fails on each mutation it is there
// to catch, the handler's read-one-copy compare among them. A mutation
// that no longer applies to the source fails too.
func TestOnePublishVerbCatches(t *testing.T) {
	for _, m := range []struct {
		name, file string
		edits      []string // old, new, old, new, ...
	}{
		{"a fingerprint compare in the publish handler", "handlers.go", []string{
			"o, err := s.publish(&sv)",
			"if prev, gerr := s.router.Survey(sv.ID); gerr == nil && prev.Fingerprint() == sv.Fingerprint() {\n\t\twriteJSON(w, http.StatusOK, nil)\n\t\treturn\n\t}\n\to, err := s.publish(&sv)"}},
		{"a fingerprint compare in the follower's survey sync", "follow.go", []string{
			"if _, err := n.Publish(sv); err != nil {",
			"if cur, _ := n.local.Survey(sv.ID); cur != nil && cur.Fingerprint() == sv.Fingerprint() {\n\t\t\tcontinue\n\t\t}\n\t\tif _, err := n.Publish(sv); err != nil {"}},
		{"a restored ReplaceSurvey", "../shardrpc/client.go", []string{
			"// Meta fetches the node's shard ownership map.",
			"func (c *Client) ReplaceSurvey(sv *survey.Survey) error { return nil }\n\n// Meta fetches the node's shard ownership map."}},
	} {
		t.Run(m.name, func(t *testing.T) {
			server, rpc := guardSources(t, ".", false), guardSources(t, "../shardrpc", false)
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
			bad := publishViolations(t, server, rpc)
			if len(bad) == 0 {
				t.Fatal("the guard passed the mutated source")
			}
			t.Log(strings.Join(bad, "; "))
		})
	}
}
