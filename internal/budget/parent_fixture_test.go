package budget

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/parent_ledger.jsonl was written by the commit BEFORE the
// ledger moved onto blockio.Log (469b70b), by running fixtureScript
// there (TestWriteParentFixture with LOKI_FIXTURE_OUT set). The script
// crosses the compaction threshold once, so the file is a snapshot line
// followed by charges and one refund. Ledger records carry no
// timestamp, so the same script must produce the same bytes forever.

var fixtureWorkers = []string{"ana", "bo", "chidi", "dee", "ezra"}

// fixtureScript drives a Set through 70 single charges (the 64th line
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

func TestWriteParentFixture(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("set LOKI_FIXTURE_OUT to (re)write the fixture with this commit's code")
	}
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
	if err := os.WriteFile(filepath.Join(out, "parent_ledger.jsonl"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentLedgerFixture: the parent-written ledger opens to the
// balances the script produces in memory, this commit writes the same
// bytes for the same script, and the file takes charges, a compaction
// and a reopen.
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

	// Same script, this commit's code: byte-identical file.
	fresh := t.TempDir()
	s := fixtureSet(t, fresh)
	fixtureScript(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(fresh, ledgerFile)); err != nil || !bytes.Equal(got, fixture) {
		t.Fatalf("this commit wrote %d bytes (%v) where the parent wrote %d: the ledger format moved", len(got), err, len(fixture))
	}

	// The parent's file: opens, appends, compacts, reopens.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ledgerFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s = fixtureSet(t, dir)
	if got := fixtureAccounts(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent ledger opened to\n%+v\nwant\n%+v", got, want)
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
	if st, _ := s.Stats(); st[0].Compactions == 0 {
		t.Fatal("70 more lines did not compact the parent's ledger")
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
