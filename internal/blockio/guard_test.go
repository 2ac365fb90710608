package blockio_test

import (
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

// Files are published and sniffed in one place: this package owns
// rename-publishing, directory syncs and framing detection (Log,
// WriteFileAtomic, SyncDir, ReplayFile). Non-test Go code anywhere else
// in the repository — cmd/ and benchmark/ included — declares no
// syncDir function, calls no os.Rename and refers to no blockio.Sniff,
// under whatever names it imports os and this package. A second copy is
// a durability rule forked.

const blockioPath = "loki/internal/blockio"

// publishSources reads every non-test Go file under root outside
// internal/blockio, keyed by its slash path relative to root.
func publishSources(t *testing.T, root string) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "internal/blockio" || rel == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(p)
		srcs[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// importNames are the names f refers to the package at path by.
func importNames(f *ast.File, path, def string) map[string]bool {
	names := make(map[string]bool)
	for _, spec := range f.Imports {
		if p, _ := strconv.Unquote(spec.Path.Value); p == path {
			name := def
			if spec.Name != nil {
				name = spec.Name.Name
			}
			names[name] = true
		}
	}
	return names
}

// publishViolations describes every breach of the rule in srcs.
func publishViolations(t *testing.T, srcs map[string]string) []string {
	t.Helper()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	var bad []string
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		osNames, bio := importNames(f, "os", "os"), importNames(f, blockioPath, "blockio")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name == "syncDir" {
					bad = append(bad, fset.Position(n.Pos()).String()+": func syncDir outside internal/blockio")
				}
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				switch {
				case !ok:
				case osNames[x.Name] && n.Sel.Name == "Rename":
					bad = append(bad, fset.Position(n.Pos()).String()+": os.Rename outside internal/blockio")
				case bio[x.Name] && n.Sel.Name == "Sniff":
					bad = append(bad, fset.Position(n.Pos()).String()+": blockio.Sniff outside internal/blockio")
				}
			}
			return true
		})
	}
	return bad
}

func TestFilesPublishedInOnePlace(t *testing.T) {
	srcs := publishSources(t, "../..")
	for _, dir := range []string{"cmd/loki-server/", "benchmark/", "internal/ingest/"} {
		if !hasPrefix(srcs, dir) {
			t.Fatalf("the guard reads no file under %s", dir)
		}
	}
	for _, v := range publishViolations(t, srcs) {
		t.Error(v)
	}
}

func hasPrefix(srcs map[string]string, dir string) bool {
	for name := range srcs {
		if strings.HasPrefix(name, dir) {
			return true
		}
	}
	return false
}

// TestFilesPublishedInOnePlaceCatches: the guard fails on each mutation
// it is there to catch, in cmd/ and benchmark/ too and under another
// import name. A mutation that no longer applies to the source fails
// too.
func TestFilesPublishedInOnePlaceCatches(t *testing.T) {
	for _, m := range []struct {
		name, file string
		edits      []string // old, new, old, new, ...
	}{
		{"a syncDir in ingest", "internal/ingest/ingest.go", []string{
			"// metaRecord is one meta-log record",
			"func syncDir(dir string) error { return nil }\n\n// metaRecord is one meta-log record"}},
		{"an os.Rename in the checkpoint files", "internal/checkpoint/checkpoint.go", []string{
			"// Open replays (or creates) the checkpoint log in dir",
			"func publish(a, b string) error { return os.Rename(a, b) }\n\n// Open replays (or creates) the checkpoint log in dir"}},
		{"an os.Rename under another import name in the server binary", "cmd/loki-server/main.go", []string{
			"\t\"os\"\n", "\t\"os\"\n\tstdos \"os\"\n",
			"\nfunc main() {", "\nfunc moveAside(a, b string) error { return stdos.Rename(a, b) }\n\nfunc main() {"}},
		{"a blockio.Sniff in the benchmark", "benchmark/probes.go", []string{
			"store.FileOptions{Sync: store.SyncAlways, Codec: blockio.CodecBinary})",
			"store.FileOptions{Sync: store.SyncAlways, Codec: blockio.CodecBinary})\n\t_, _ = blockio.Sniff(dir)"}},
	} {
		t.Run(m.name, func(t *testing.T) {
			srcs := publishSources(t, "../..")
			for i := 0; i < len(m.edits); i += 2 {
				if !strings.Contains(srcs[m.file], m.edits[i]) {
					t.Fatalf("%s no longer contains %q: update the mutation", m.file, m.edits[i])
				}
				srcs[m.file] = strings.Replace(srcs[m.file], m.edits[i], m.edits[i+1], 1)
			}
			bad := publishViolations(t, srcs)
			if len(bad) == 0 {
				t.Fatal("the guard passed the mutated source")
			}
			t.Log(strings.Join(bad, "; "))
		})
	}
}
