package main

import (
	"io"
	"log"
	"path/filepath"
	"testing"

	"loki/internal/ingest"
	"loki/internal/store"
)

// TestOpenStore resolves each -store syntax to the right backend.
func TestOpenStore(t *testing.T) {
	icfg := ingest.Config{Shards: 2}

	st, err := openStore("mem", icfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*store.Mem); !ok {
		t.Fatalf("mem resolved to %T", st)
	}
	st.Close()

	dir := t.TempDir()
	st, err = openStore("ingest:"+dir, icfg)
	if err != nil {
		t.Fatal(err)
	}
	ing, ok := st.(*ingest.Sharded)
	if !ok {
		t.Fatalf("ingest: resolved to %T", st)
	}
	if err := seedStore(ing, log.New(io.Discard, "", 0)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = openStore(filepath.Join(t.TempDir(), "loki.jsonl"), icfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*store.File); !ok {
		t.Fatalf("file path resolved to %T", st)
	}
	st.Close()
}

func TestSeedStore(t *testing.T) {
	st := store.NewMem()
	defer st.Close()
	logger := log.New(io.Discard, "", 0)
	if err := seedStore(st, logger); err != nil {
		t.Fatal(err)
	}
	surveys, err := st.Surveys()
	if err != nil {
		t.Fatal(err)
	}
	if len(surveys) != 6 {
		t.Fatalf("catalog = %d surveys, want 6", len(surveys))
	}
	// Re-seeding a store that already has the catalog is a no-op, not an
	// error — the durable-store replay path.
	if err := seedStore(st, logger); err != nil {
		t.Fatalf("re-seed failed: %v", err)
	}
	surveys, _ = st.Surveys()
	if len(surveys) != 6 {
		t.Fatalf("re-seed duplicated surveys: %d", len(surveys))
	}
}
