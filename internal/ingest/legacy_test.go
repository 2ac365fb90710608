package ingest

// Format-1 directories (one log per shard-NNN/) must open, serve the
// same per-survey sequences and end up in the store-level layout,
// whatever point of the migration a crash interrupted.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/logtest"
	"loki/internal/survey"
)

// copyTree copies a directory tree, for staging crash states.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

// writeFile is os.WriteFile that fails the test.
func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// buildLegacy writes a format-1 directory as the parent commit laid it
// out: layout.json at format 1, one JSON-lines meta.jsonl, and per
// shard-NNN/ the segments (and, withSnapshot, a snapshot) of that
// shard's surveys, in blocks or (codec "json") JSON lines. The per-log
// files are produced by the current writer — their formats did not
// change, only where the logs live — one single-log store per shard,
// whose files are then moved into place. It returns every survey's
// expected stream.
func buildLegacy(t *testing.T, dir string, shards int, codec string, withSnapshot, tornTail bool) map[string][]survey.Response {
	t.Helper()
	want := make(map[string][]survey.Response)
	var meta []byte
	for i := 0; i < shards; i++ {
		cfg := testConfig(1)
		cfg.CompactSegments = 1000
		if withSnapshot {
			cfg.CompactSegments = 1
		}
		tmp := t.TempDir()
		s := openTest(t, tmp, cfg)
		var ids []string
		for _, k := range []int{i, i + shards} { // two surveys per shard
			sv := benchSurvey(k)
			if err := s.PutSurvey(sv); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, sv.ID)
		}
		for k := 0; k < 120; k++ {
			if err := s.AppendResponse(benchResponse(ids[k%2], fmt.Sprintf("sh%d-w%03d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
		if withSnapshot {
			waitSnapshots(t, s, 1)
		}
		for _, id := range ids {
			want[id] = scanAll(t, s, id)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if codec == "json" {
			toJSONLines(t, tmp)
		} else if err := logtest.WriteJSONLines(filepath.Join(tmp, metaName), nil); err != nil {
			t.Fatal(err)
		}
		shardDir := filepath.Join(dir, shardDirName(i))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, pat := range []string{segPrefix + "*", snapPrefix + "*"} {
			files, _ := filepath.Glob(filepath.Join(tmp, pat))
			for _, f := range files {
				if err := os.Rename(f, filepath.Join(shardDir, filepath.Base(f))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if snaps, _ := listSeqs(shardDir, snapPrefix, snapSuffix); withSnapshot != (len(snaps) > 0) {
			t.Fatalf("shard %d: withSnapshot=%v but %d snapshot files", i, withSnapshot, len(snaps))
		}
		b, err := os.ReadFile(filepath.Join(tmp, metaName))
		if err != nil {
			t.Fatal(err)
		}
		meta = append(meta, b...)
	}
	writeFile(t, filepath.Join(dir, metaName), meta)
	b, _ := json.Marshal(layout{Format: 1, Shards: shards})
	writeFile(t, filepath.Join(dir, layoutName), b)
	if tornTail {
		appendBytes(t, newestSegment(t, filepath.Join(dir, shardDirName(0))), tornBytes)
	}
	return want
}

// assertStoreLevelLayout checks dir is a finished format-2 store: the
// marker says so and no shard directory is left.
func assertStoreLevelLayout(t *testing.T, dir string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, layoutName))
	if err != nil {
		t.Fatal(err)
	}
	var l layout
	if err := json.Unmarshal(b, &l); err != nil || l.Format != layoutFormat {
		t.Fatalf("layout %s (%v), want format %d", b, err, layoutFormat)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "shard-*")); len(left) > 0 {
		t.Fatalf("legacy shard directories survive the migration: %v", left)
	}
}

// assertStreams checks every survey's scan against want.
func assertStreams(t *testing.T, s *Sharded, want map[string][]survey.Response) {
	t.Helper()
	for id, w := range want {
		if got := scanAll(t, s, id); !reflect.DeepEqual(got, w) {
			t.Fatalf("survey %s: %d records, want %d (or order/content diverged)", id, len(got), len(w))
		}
	}
}

// TestLegacyDirectoryMigrates: every shape of parent-written directory
// opens with identical per-survey sequences, is in the store-level
// layout after the first open, accepts appends, and reopens.
func TestLegacyDirectoryMigrates(t *testing.T) {
	for _, codec := range []string{"binary", "json"} {
		for _, withSnapshot := range []bool{false, true} {
			for _, tornTail := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/snapshot=%v/torn=%v", codec, withSnapshot, tornTail), func(t *testing.T) {
					const shards = 3
					dir := t.TempDir()
					want := buildLegacy(t, dir, shards, codec, withSnapshot, tornTail)
					cfg := testConfig(shards)
					s := openTest(t, dir, cfg)
					assertStreams(t, s, want)
					assertStoreLevelLayout(t, dir)
					id := benchSurvey(0).ID
					if err := s.AppendResponse(benchResponse(id, "after-migration")); err != nil {
						t.Fatal(err)
					}
					want[id] = scanAll(t, s, id)
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s2 := openTest(t, dir, cfg)
					defer s2.Close()
					assertStreams(t, s2, want)
				})
			}
		}
	}
}

// TestLegacyShardCountChecked: the shard label of a format-1 directory
// is still enforced, before anything is migrated.
func TestLegacyShardCountChecked(t *testing.T) {
	dir := t.TempDir()
	buildLegacy(t, dir, 2, "binary", false, false)
	if _, err := Open(dir, testConfig(4)); err == nil {
		t.Fatal("format-1 directory opened under a different shard count")
	}
	if _, err := os.Stat(filepath.Join(dir, shardDirName(0))); err != nil {
		t.Fatalf("refused open touched the directory: %v", err)
	}
}

// TestMigrationKillPoints stages the directory a crash would leave at
// each step of the migration — both layouts present in different
// proportions — and checks each reopens to the same streams and
// finishes the migration.
func TestMigrationKillPoints(t *testing.T) {
	const shards = 3
	cfg := testConfig(shards)
	legacy := t.TempDir()
	want := buildLegacy(t, legacy, shards, "binary", true, false)

	// A completed migration supplies the store-level snapshot.
	done := filepath.Join(t.TempDir(), "done")
	copyTree(t, legacy, done)
	openTest(t, done, cfg).Close()
	snaps, err := listSeqs(done, snapPrefix, snapSuffix)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("migrated store holds snapshots %v (%v), want one", snaps, err)
	}
	snapFile := snapName(snaps[0])
	snap, err := os.ReadFile(filepath.Join(done, snapFile))
	if err != nil {
		t.Fatal(err)
	}
	format2, _ := json.Marshal(layout{Format: layoutFormat, Shards: shards})

	stage := map[string]func(t *testing.T, dir string){
		"snapshot tmp written": func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, snapFile+tmpSuffix), snap[:len(snap)/2])
		},
		"snapshot durable, layout still format 1": func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, snapFile), snap)
		},
		"layout republished, shard dirs all present": func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, snapFile), snap)
			writeFile(t, filepath.Join(dir, layoutName), format2)
		},
		"layout republished, shard dirs partly removed": func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, snapFile), snap)
			writeFile(t, filepath.Join(dir, layoutName), format2)
			if err := os.RemoveAll(filepath.Join(dir, shardDirName(1))); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range stage {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			copyTree(t, legacy, dir)
			mutate(t, dir)
			s := openTest(t, dir, cfg)
			assertStreams(t, s, want)
			assertStoreLevelLayout(t, dir)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openTest(t, dir, cfg)
			defer s2.Close()
			assertStreams(t, s2, want)
		})
	}
}
