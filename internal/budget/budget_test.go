package budget

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"loki/internal/blockio"
)

func testConfig() Config { return Config{CapEpsilon: 2, Delta: 1e-6} }

func mustSet(t *testing.T, opts SetOptions) *Set {
	t.Helper()
	s, err := NewSet(opts)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return s
}

func TestRouteConcentratesWorker(t *testing.T) {
	// The same worker must land on the same shard no matter what survey
	// the charge is for — Route takes no survey at all, but pin the
	// stability and range anyway.
	for _, w := range []string{"w1", "w2", "alice", ""} {
		got := Route(w, 8)
		if got != Route(w, 8) {
			t.Fatalf("Route(%q) unstable", w)
		}
		if got < 0 || got >= 8 {
			t.Fatalf("Route(%q) = %d outside [0, 8)", w, got)
		}
	}
}

func TestChargeEnforcement(t *testing.T) {
	s := mustSet(t, SetOptions{Shards: 4, Config: testConfig()})
	defer s.Close()

	// Each charge costs rho = 0.01. At δ=1e-6, ε(ρ) ≈ ρ + 2√(ρ·13.8),
	// so the cap ε=2 admits a handful of charges before rejecting.
	var accepted int
	var rejected bool
	for i := 0; i < 100; i++ {
		out, err := s.Charge(Charge{WorkerID: "w1", SurveyID: "s", Rho: 0.01, Enforce: true})
		if err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
		if out.Rejected {
			rejected = true
			break
		}
		accepted++
		if out.SpentEpsilon > s.Config().CapEpsilon {
			t.Fatalf("accepted charge %d left spent ε %.4f over cap", i, out.SpentEpsilon)
		}
	}
	if !rejected {
		t.Fatal("never rejected despite 100 charges at rho=0.1 against cap ε=2")
	}
	if accepted == 0 {
		t.Fatal("first charge already rejected; cap too tight for the test to mean anything")
	}

	// The balance is unchanged by the rejection, and stays capped.
	a, err := s.Peek("w1")
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	if a.Charges != uint64(accepted) {
		t.Fatalf("account recorded %d charges, accepted %d", a.Charges, accepted)
	}
	if eps := s.Config().Epsilon(a.Rho); eps > s.Config().CapEpsilon {
		t.Fatalf("final spent ε %.4f exceeds cap", eps)
	}

	// Log mode (Enforce=false) admits the same over-cap charge but
	// reports OverCap.
	out, err := s.Charge(Charge{WorkerID: "w1", Rho: 0.01})
	if err != nil {
		t.Fatalf("log-mode charge: %v", err)
	}
	if out.Rejected {
		t.Fatal("log-mode charge rejected")
	}
	if !out.OverCap {
		t.Fatal("log-mode over-cap charge did not report OverCap")
	}

	// Zero-rho (level-None) charges are never rejected, even enforced
	// and over cap; they tally unprotected disclosures.
	out, err = s.Charge(Charge{WorkerID: "w1", Unprotected: 3, Enforce: true})
	if err != nil {
		t.Fatalf("none-level charge: %v", err)
	}
	if out.Rejected {
		t.Fatal("zero-rho charge rejected")
	}
	a, _ = s.Peek("w1")
	if a.Unprotected != 3 {
		t.Fatalf("unprotected = %d, want 3", a.Unprotected)
	}
}

func TestChargeBatchComposesWithinBatch(t *testing.T) {
	s := mustSet(t, SetOptions{Shards: 1, Config: Config{CapEpsilon: 1, Delta: 1e-6}})
	defer s.Close()

	// Two charges for the same worker in one batch: the second must see
	// the first's staged debit. rho=0.012 → ε≈0.83 alone, ≈1.18 combined
	// at δ=1e-6, against the cap ε=1.
	outs, err := s.ChargeShard(0, []Charge{
		{WorkerID: "w", Rho: 0.012, Enforce: true},
		{WorkerID: "w", Rho: 0.012, Enforce: true},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if outs[0].Rejected {
		t.Fatal("first charge rejected")
	}
	if !outs[1].Rejected {
		t.Fatal("second charge in the same batch did not compose with the first")
	}
}

func TestRefund(t *testing.T) {
	s := mustSet(t, SetOptions{Shards: 2, Config: testConfig()})
	defer s.Close()
	ch := Charge{WorkerID: "w", SurveyID: "s", Rho: 0.3, Unprotected: 1}
	if _, err := s.Charge(ch); err != nil {
		t.Fatal(err)
	}
	if err := s.Refund(ch); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Peek("w")
	if a.Rho != 0 || a.Unprotected != 0 {
		t.Fatalf("after refund rho=%g unprotected=%d, want zeros", a.Rho, a.Unprotected)
	}
	if a.Charges != 1 || a.Refunds != 1 {
		t.Fatalf("charges=%d refunds=%d, want 1/1", a.Charges, a.Refunds)
	}
}

// TestRestartEquivalence is the kill-9 contract: concurrent charges and
// refunds land on a durable set, the process "dies" (the files are
// reopened without a clean close), and every balance replays to the
// exact same float64.
func TestRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CapEpsilon: 50, Delta: 1e-6}
	s := mustSet(t, SetOptions{Shards: 4, Dir: dir, Config: cfg})

	const workers = 16
	const perG = 40
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w := fmt.Sprintf("w%02d", (g*perG+i)%workers)
				rho := 0.001 * float64(i%7+1)
				if _, err := s.Charge(Charge{WorkerID: w, SurveyID: "s", Rho: rho, Enforce: true}); err != nil {
					t.Errorf("charge: %v", err)
					return
				}
				if i%9 == 0 {
					if err := s.Refund(Charge{WorkerID: w, Rho: rho}); err != nil {
						t.Errorf("refund: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := make(map[string]Account, workers)
	for i := 0; i < workers; i++ {
		w := fmt.Sprintf("w%02d", i)
		a, err := s.Peek(w)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = a
	}
	// Kill-9: no Close. The OS keeps the fsynced bytes; the dropped
	// handles are the crashed process's.
	s = nil

	re := mustSet(t, SetOptions{Shards: 4, Dir: dir, Config: cfg})
	defer re.Close()
	for w, exp := range want {
		got, err := re.Peek(w)
		if err != nil {
			t.Fatal(err)
		}
		if got != exp {
			t.Fatalf("worker %s: replayed %+v, lived %+v", w, got, exp)
		}
	}
}

// TestRestartTornTail crashes mid-append: a half-written last record
// must be truncated away on reopen, restoring the state before the torn
// charge.
func TestRestartTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ledgerFile)
	cfg := testConfig()
	s := mustSet(t, SetOptions{Shards: 1, Dir: dir, Config: cfg})
	if _, err := s.Charge(Charge{WorkerID: "w", Rho: 0.2}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Charge(Charge{WorkerID: "w", Rho: 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	end, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, (fi.Size()+end.Size())/2); err != nil {
		t.Fatal(err)
	}

	re := mustSet(t, SetOptions{Shards: 1, Dir: dir, Config: cfg})
	defer re.Close()
	a, err := re.Peek("w")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rho != 0.2 || a.Charges != 1 {
		t.Fatalf("after torn tail: rho=%g charges=%d, want 0.2/1", a.Rho, a.Charges)
	}
}

// TestLedgerInteriorDamageRefused: one flipped byte inside the first
// record of a 20-charge ledger is not a torn tail — truncating there
// would reopen at zero spend — so the open refuses and the file stays.
func TestLedgerInteriorDamageRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ledgerFile)
	cfg := testConfig()
	s := mustSet(t, SetOptions{Shards: 1, Dir: dir, Config: cfg})
	var firstEnd int64
	for i := 0; i < 20; i++ {
		if _, err := s.Charge(Charge{WorkerID: "w", SurveyID: "s", Rho: 0.001}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			firstEnd = fi.Size()
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[firstEnd-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if re, err := NewSet(SetOptions{Shards: 1, Dir: dir, Config: cfg}); err == nil {
		a, _ := re.Peek("w")
		re.Close()
		t.Fatalf("a damaged first record opened to %d charges, ρ %g", a.Charges, a.Rho)
	} else if !errors.Is(err, blockio.ErrInteriorDamage) {
		t.Fatalf("refused for the wrong reason: %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, b) {
		t.Fatalf("the refused open changed the ledger: %d bytes, was %d", len(after), len(b))
	}
}

// TestLedgerRecordRefusals: a record that is not exactly one encoding
// is refused with the ledger's error, whatever is wrong with it.
func TestLedgerRecordRefusals(t *testing.T) {
	good := appendLedgerRecord(nil, []walRecord{{Worker: "w", Survey: "s", Rho: 0.5, Unprot: 1}})
	for name, b := range map[string][]byte{
		"unknown tag":   append([]byte{ledgerTag + 1}, good[1:]...),
		"unknown kind":  append(append([]byte{ledgerTag, 1}, 9), good[3:]...),
		"trailing byte": append(append([]byte(nil), good...), 0),
		"truncated":     good[:len(good)-1],
		"overlong":      append([]byte{ledgerTag, 0x81, 0x00}, good[2:]...),
		"huge count":    {ledgerTag, 0xFF, 0xFF, 0xFF, 0x0F},
	} {
		if _, err := decodeLedgerRecord(nil, b); !errors.Is(err, errBadRecord) {
			t.Errorf("%s: %v", name, err)
		}
	}
	if recs, err := decodeLedgerRecord(nil, good); err != nil || len(recs) != 1 || recs[0].Rho != 0.5 {
		t.Fatalf("good record: %+v, %v", recs, err)
	}
}

func TestCompactionPreservesBalances(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CapEpsilon: 1000, Delta: 1e-6}
	s := mustSet(t, SetOptions{Shards: 1, Dir: dir, Config: cfg})

	// One worker, hundreds of small charges: threshold is 64-ish, so
	// several compactions run.
	for i := 0; i < 300; i++ {
		if _, err := s.Charge(Charge{WorkerID: "w", Rho: 0.001}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Compactions == 0 {
		t.Fatal("300 charges never triggered compaction")
	}
	if stats[0].WALRecords >= 300 {
		t.Fatalf("compaction did not shrink the WAL: %d records", stats[0].WALRecords)
	}
	before, _ := s.Peek("w")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustSet(t, SetOptions{Shards: 1, Dir: dir, Config: cfg})
	defer re.Close()
	after, err := re.Peek("w")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("compacted replay %+v differs from live %+v", after, before)
	}
	if after.Charges != 300 {
		t.Fatalf("charges = %d, want 300", after.Charges)
	}
}

func TestHostedSubset(t *testing.T) {
	s := mustSet(t, SetOptions{Shards: 8, GlobalIDs: []int{1, 5}, Config: testConfig()})
	defer s.Close()
	if s.Shards() != 8 {
		t.Fatalf("Shards() = %d, want global count 8", s.Shards())
	}
	if _, err := s.ChargeShard(2, []Charge{{WorkerID: "w5", Rho: 0.1}}); err == nil {
		t.Fatal("charging an unhosted shard succeeded")
	} else if !errors.Is(err, ErrNotHosted) {
		t.Fatalf("unhosted charge error %v does not wrap ErrNotHosted", err)
	}
	// "w5" routes to shard 1 of 8 — hosted, so the charge lands.
	if _, err := s.ChargeShard(1, []Charge{{WorkerID: "w5", Rho: 0.1}}); err != nil {
		t.Fatalf("charging hosted shard 1: %v", err)
	}
	// A charge addressed to a hosted shard but for a worker whose hash
	// routes elsewhere must not half-commit onto the wrong shard.
	if _, err := s.ChargeShard(1, []Charge{{WorkerID: "w", Rho: 0.1}}); !errors.Is(err, ErrNotHosted) {
		t.Fatalf("misrouted charge error %v does not wrap ErrNotHosted", err)
	}
}

func TestChargeValidation(t *testing.T) {
	s := mustSet(t, SetOptions{Shards: 1, Config: testConfig()})
	defer s.Close()
	for _, c := range []Charge{
		{WorkerID: "", Rho: 0.1},
		{WorkerID: "w", Rho: -1},
		{WorkerID: "w", Rho: math.Inf(1)},
		{WorkerID: "w", Rho: math.NaN()},
		{WorkerID: "w", Unprotected: -1},
	} {
		if _, err := s.Charge(c); err == nil {
			t.Fatalf("charge %+v accepted", c)
		}
	}
	if _, err := NewSet(SetOptions{Shards: 1, Config: Config{CapEpsilon: 0, Delta: 1e-6}}); err == nil {
		t.Fatal("zero cap accepted")
	}
	if _, err := NewSet(SetOptions{Shards: 1, Config: Config{CapEpsilon: 1, Delta: 1}}); err == nil {
		t.Fatal("delta=1 accepted")
	}
}
