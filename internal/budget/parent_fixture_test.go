package budget

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/blockio"
)

// Two fixtures, both fixtureScript's output:
//
//   - testdata/parent_ledger.jsonl was written by the commit BEFORE the
//     ledger moved onto blockio.Log (469b70b): JSON lines, a snapshot line
//     followed by charges and one refund. It must open and convert.
//   - testdata/ledger_binary.log is the first binary ledger (tag 0xB2),
//     written by TestWriteLedgerFixture with LOKI_FIXTURE_OUT set. Ledger
//     records carry no timestamp, so the same script must produce the
//     same bytes until the format is meant to change.

var fixtureWorkers = []string{"ana", "bo", "chidi", "dee", "ezra"}

// fixtureScript drives a Set through 70 single charges (the 64th entry
// compacts), a three-charge batch, a refund and two more charges.
func fixtureScript(t *testing.T, s *Set) {
	t.Helper()
	for i := 0; i < 70; i++ {
		w := fixtureWorkers[i%len(fixtureWorkers)]
		c := Charge{WorkerID: w, SurveyID: fmt.Sprintf("s%d", i%3), Rho: 0.001 + float64(i)*1e-5}
		if i%7 == 0 {
			c.Rho, c.Unprotected = 0, 1
		}
		if _, err := s.Charge(c); err != nil {
			t.Fatal(err)
		}
	}
	groups := map[int][]Charge{}
	for _, w := range fixtureWorkers[:3] {
		g := Route(w, s.Shards())
		groups[g] = append(groups[g], Charge{WorkerID: w, SurveyID: "batch", Rho: 0.0025})
	}
	if _, err := s.ChargeShards(groups); err != nil {
		t.Fatal(err)
	}
	if err := s.Refund(Charge{WorkerID: "bo", SurveyID: "batch", Rho: 0.0025}); err != nil {
		t.Fatal(err)
	}
	for _, w := range fixtureWorkers[3:] {
		if _, err := s.Charge(Charge{WorkerID: w, SurveyID: "tail", Rho: 0.004}); err != nil {
			t.Fatal(err)
		}
	}
}

func fixtureSet(t *testing.T, dir string) *Set {
	t.Helper()
	return mustSet(t, SetOptions{Shards: 4, Dir: dir, Config: testConfig()})
}

func fixtureAccounts(t *testing.T, s *Set) []Account {
	t.Helper()
	var out []Account
	for _, w := range fixtureWorkers {
		a, err := s.Peek(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// scriptedLedger runs fixtureScript on a fresh durable Set and returns
// the ledger file's bytes.
func scriptedLedger(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s := fixtureSet(t, dir)
	fixtureScript(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWriteLedgerFixture(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("set LOKI_FIXTURE_OUT to (re)write the fixture with this commit's code")
	}
	if err := os.WriteFile(filepath.Join(out, "ledger_binary.log"), scriptedLedger(t), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentLedgerFixture: the parent-written JSON ledger opens to the
// balances the script produces in memory, comes out binary, takes 70
// charges and a compaction, and reopens equal.
func TestParentLedgerFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"t":"snapshot"`, `"t":"refund"`, `{"worker":`} {
		if !bytes.Contains(fixture, []byte(kind)) {
			t.Fatalf("fixture holds no %s record", kind)
		}
	}
	mem := fixtureSet(t, "")
	fixtureScript(t, mem)
	want := fixtureAccounts(t, mem)

	dir := t.TempDir()
	path := filepath.Join(dir, ledgerFile)
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s := fixtureSet(t, dir)
	if got := fixtureAccounts(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent ledger opened to\n%+v\nwant\n%+v", got, want)
	}
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("the parent ledger did not come out binary after open (%v)", err)
	}
	for i := 0; i < 70; i++ { // crosses the compaction threshold again
		c := Charge{WorkerID: fixtureWorkers[i%len(fixtureWorkers)], SurveyID: "more", Rho: 0.0005}
		if _, err := s.Charge(c); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Charge(c); err != nil {
			t.Fatal(err)
		}
	}
	want = fixtureAccounts(t, mem)
	// One compaction is the conversion at open.
	if st, _ := s.Stats(); st[0].Compactions < 2 {
		t.Fatalf("70 more charges did not compact the converted ledger: %d compactions", st[0].Compactions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = fixtureSet(t, dir)
	defer s.Close()
	if got := fixtureAccounts(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("after append + compaction + reopen:\n%+v\nwant\n%+v", got, want)
	}
}

// TestLedgerBinaryFixture: the script writes testdata/ledger_binary.log
// byte for byte, the file holds every entry kind and a batch record, and
// it opens to the script's balances.
func TestLedgerBinaryFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "ledger_binary.log"))
	if err != nil {
		t.Fatal(err)
	}
	if got := scriptedLedger(t); !bytes.Equal(got, fixture) {
		t.Fatalf("this commit wrote %d bytes where the fixture holds %d: the ledger format moved", len(got), len(fixture))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, ledgerFile)
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	var widest int
	if err := blockio.ReplayFile(path, false, func(p []byte) error {
		recs, err := decodeLedgerRecord(nil, p)
		for _, rec := range recs {
			kinds[rec.T]++
		}
		widest = max(widest, len(recs))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if kinds[walSnapshot] != 1 || kinds[walRefund] != 1 || kinds[""] == 0 || widest < 3 {
		t.Fatalf("fixture entries by kind %v, widest record %d: want a snapshot, a refund, charges and a batch", kinds, widest)
	}

	mem := fixtureSet(t, "")
	fixtureScript(t, mem)
	s := fixtureSet(t, dir)
	defer s.Close()
	if got, want := fixtureAccounts(t, s), fixtureAccounts(t, mem); !reflect.DeepEqual(got, want) {
		t.Fatalf("binary fixture opened to\n%+v\nwant\n%+v", got, want)
	}
}
