package placement

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestRoundRobin(t *testing.T) {
	m, err := RoundRobin(5, []string{"http://a", "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 || len(m.Shards) != 5 {
		t.Fatalf("manifest = v%d, %d shards", m.Version, len(m.Shards))
	}
	for s := 0; s < 5; s++ {
		sp := m.Placement(s)
		if sp == nil {
			t.Fatalf("shard %d missing", s)
		}
		want := "http://a"
		if s%2 == 1 {
			want = "http://b"
		}
		if sp.Primary != want || sp.Epoch != 1 {
			t.Fatalf("shard %d = %+v", s, sp)
		}
	}
	if got := m.Nodes(); !reflect.DeepEqual(got, []string{"http://a", "http://b"}) {
		t.Fatalf("nodes = %v", got)
	}
	wantBudget := []BudgetPlacement{{0, "http://a"}, {1, "http://b"}, {2, "http://a"}, {3, "http://b"}, {4, "http://a"}}
	if !reflect.DeepEqual(m.Budget, wantBudget) {
		t.Fatalf("budget rows = %v", m.Budget)
	}
	if got := m.BudgetShards("http://b"); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("b hosts budget shards %v", got)
	}
	if got := m.BudgetShards("http://nobody"); got == nil || len(got) != 0 {
		t.Fatalf("a node hosting nothing gets %#v, which budget.SetOptions reads as every shard", got)
	}
	if _, err := RoundRobin(0, []string{"http://a"}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := RoundRobin(2, nil); err == nil {
		t.Fatal("no nodes accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Manifest {
		m, _ := RoundRobin(3, []string{"http://a"})
		return m
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"zero version", func(m *Manifest) { m.Version = 0 }},
		{"no shards", func(m *Manifest) { m.Shards = nil }},
		{"duplicate shard", func(m *Manifest) { m.Shards[1].Shard = 0 }},
		{"out of range shard", func(m *Manifest) { m.Shards[1].Shard = 9 }},
		{"empty primary", func(m *Manifest) { m.Shards[2].Primary = "" }},
		{"primary as replica", func(m *Manifest) { m.Shards[0].Replicas = []string{"http://a"} }},
		{"no budget rows", func(m *Manifest) { m.Budget = nil }},
		{"missing budget row", func(m *Manifest) { m.Budget = []BudgetPlacement{m.Budget[0], m.Budget[2]} }},
		{"duplicate budget row", func(m *Manifest) { m.Budget[1].Shard = 0 }},
		{"empty budget host", func(m *Manifest) { m.Budget[2].Host = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(m)
			if err := m.Validate(); err == nil {
				t.Fatal("validated")
			}
		})
	}
}

func TestPromote(t *testing.T) {
	m, _ := RoundRobin(2, []string{"http://a", "http://b"})
	m.Shards[0].Replicas = []string{"http://r"}

	epoch, err := m.Promote(0, "http://r")
	if err != nil {
		t.Fatal(err)
	}
	sp := m.Placement(0)
	if epoch != 2 || sp.Epoch != 2 || sp.Primary != "http://r" {
		t.Fatalf("after promote: epoch %d, row %+v", epoch, sp)
	}
	if len(sp.Replicas) != 0 {
		t.Fatalf("new primary still a replica: %v", sp.Replicas)
	}
	if m.Version != 2 {
		t.Fatalf("version = %d, want 2", m.Version)
	}
	if m.Budget[0].Host != "http://a" {
		t.Fatalf("the promotion moved budget shard 0 to %s", m.Budget[0].Host)
	}
	// Shard 1 untouched.
	if sp1 := m.Placement(1); sp1.Epoch != 1 || sp1.Primary != "http://b" {
		t.Fatalf("shard 1 disturbed: %+v", sp1)
	}

	// Idempotent: promoting the current primary changes nothing.
	epoch2, err := m.Promote(0, "http://r")
	if err != nil || epoch2 != 2 || m.Version != 2 {
		t.Fatalf("re-promote = epoch %d version %d err %v", epoch2, m.Version, err)
	}

	if _, err := m.Promote(9, "http://r"); err == nil {
		t.Fatal("unknown shard promoted")
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m, _ := RoundRobin(3, []string{"http://a", "http://b"})
	m.Shards[1].Replicas = []string{"http://r"}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("roundtrip: got %+v want %+v", got, m)
	}

	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("corrupt file loaded")
	}
	// An invalid (but parseable) manifest refuses to Save.
	bad := &Manifest{Version: 0}
	if err := bad.Save(path); err == nil {
		t.Fatal("invalid manifest saved")
	}
}

// TestSaveIsAtomicAndLeavesNoLitter: a refused Save leaves the published
// manifest byte-identical, a crash's stale temp file is replaced rather
// than accumulated, and the directory holds nothing but the manifest.
func TestSaveIsAtomicAndLeavesNoLitter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	m, _ := RoundRobin(2, []string{"http://a"})
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	if err := (&Manifest{Version: 0}).Save(path); err == nil {
		t.Fatal("invalid manifest saved")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("a refused Save changed the published manifest")
	}
	// A crash between the temp file's write and its rename.
	if err := os.WriteFile(path+".tmp", []byte(`{"version":99,"shards":[{"sh`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Promote(0, "http://b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(path); err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("after the promotion: %+v (%v)", got, err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("directory holds %v", names)
	}
}

func TestWatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m, _ := RoundRobin(2, []string{"http://a"})
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []int64
	w, err := Watch(path, time.Hour, func(m *Manifest) {
		mu.Lock()
		seen = append(seen, m.Version)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// The initial manifest is delivered synchronously.
	mu.Lock()
	if len(seen) != 1 || seen[0] != 1 {
		mu.Unlock()
		t.Fatalf("initial delivery = %v", seen)
	}
	mu.Unlock()

	// A version bump delivers on the next poll; redelivery of the same
	// version does not.
	if _, err := m.Promote(0, "http://b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	w.Poll()
	w.Poll()
	mu.Lock()
	if len(seen) != 2 || seen[1] != 2 {
		mu.Unlock()
		t.Fatalf("after bump = %v", seen)
	}
	mu.Unlock()

	// A torn write is skipped; the applied manifest stands.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	w.Poll()
	mu.Lock()
	if len(seen) != 2 {
		mu.Unlock()
		t.Fatalf("torn write delivered: %v", seen)
	}
	mu.Unlock()

	// An older version (rollback file) is ignored too.
	old, _ := RoundRobin(2, []string{"http://a"})
	if err := old.Save(path); err != nil {
		t.Fatal(err)
	}
	w.Poll()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("rollback delivered: %v", seen)
	}
}

// TestParentManifestFixture: a manifest the parent's Save wrote has no
// budget rows. It loads with the rows that code placed budget shards by
// — one per response shard, budget shard s on Nodes()[s mod n] — and
// keeps them through a promotion that reorders Nodes() and a Save/Load
// round trip.
func TestParentManifestFixture(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "parent_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"budget"`)) {
		t.Fatal("the fixture already carries budget rows")
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fixtureManifest(t)
	if !reflect.DeepEqual(m.Shards, want.Shards) {
		t.Fatalf("shards = %+v, want %+v", m.Shards, want.Shards)
	}
	var parentBudget []BudgetPlacement
	for s := range m.Shards {
		parentBudget = append(parentBudget, BudgetPlacement{Shard: s, Host: fixtureNodes[s%len(fixtureNodes)]})
	}
	if !reflect.DeepEqual(m.Budget, parentBudget) {
		t.Fatalf("budget rows = %+v, want the parent's %+v", m.Budget, parentBudget)
	}

	if _, err := m.Promote(0, "http://replica-a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := got.Nodes(); nodes[0] != "http://replica-a" {
		t.Fatalf("nodes after the promotion = %v", nodes)
	}
	if sp := got.Placement(0); got.Version != 2 || sp.Epoch != 2 || sp.Primary != "http://replica-a" {
		t.Fatalf("after Promote + Save + Load: v%d, shard 0 %+v", got.Version, sp)
	}
	if !reflect.DeepEqual(got.Budget, parentBudget) {
		t.Fatalf("after Promote + Save + Load: budget rows %+v, want %+v", got.Budget, parentBudget)
	}
}
