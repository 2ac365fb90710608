package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loki/internal/blockio"
	"loki/internal/survey"
)

// testdata/parent_binary.log and testdata/parent_reference.jsonl were
// written by the binary of the commit BEFORE response records went
// binary (dcfaa6e), from one operation stream: two surveys, 60
// single-response commits (one-record blocks), a 200-response batch (one
// multi-record block), a republish of the lecturer survey from two
// questions to three, 40 more single commits and a 3-response batch —
// 303 responses with every answer kind, full-mantissa noisy ratings and
// non-ASCII free text. The .log is a blockio file whose every payload is
// JSON; the .jsonl is the same history as JSON lines, which an open
// converts to blocks.

// copyFixture copies a testdata file somewhere writable: opening a log
// repairs and appends in place.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameContents compares everything a Store serves except publish
// timestamps (the two fixtures were written a moment apart).
func sameContents(t *testing.T, got, want Store) {
	t.Helper()
	gs, err := got.Surveys()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Surveys()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("surveys differ:\n%+v\n%+v", gs, ws)
	}
	for _, sv := range ws {
		gr, err := CollectResponses(got, sv.ID)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := CollectResponses(want, sv.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(wr) == 0 || !reflect.DeepEqual(gr, wr) {
			t.Fatalf("survey %q: %d responses differ from the reference's %d", sv.ID, len(gr), len(wr))
		}
		gh, wh := got.(Historian).SurveyHistory(sv.ID), want.(Historian).SurveyHistory(sv.ID)
		if len(gh) != len(wh) {
			t.Fatalf("survey %q: %d versions, reference has %d", sv.ID, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i].Fingerprint != wh[i].Fingerprint {
				t.Fatalf("survey %q version %d fingerprint differs", sv.ID, i)
			}
		}
	}
}

// payloadKinds counts a binary log's response payloads by encoding, and
// fails the test if a JSON one follows a binary one in file order.
func payloadKinds(t *testing.T, path string) (jsonResp, binResp int) {
	t.Helper()
	_, err := blockio.Replay(path, false, func(_ uint64, p []byte) error {
		switch {
		case p[0] == survey.ResponseBinaryTag:
			binResp++
		case p[0] == '{':
			if bytes.HasPrefix(p, []byte(`{"kind":"response",`)) {
				jsonResp++
				if binResp > 0 {
					t.Error("a JSON response payload follows a binary one: the write path forked")
				}
			}
		default:
			t.Errorf("payload starts with %#x", p[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return jsonResp, binResp
}

func lecturerResponse3(worker string, noise float64) *survey.Response {
	return &survey.Response{
		SurveyID: survey.LecturerID, WorkerID: worker, PrivacyLevel: "high", Obfuscated: true, Day: 9,
		Answers: []survey.Answer{
			survey.RatingAnswer("lecturer-00", 4+noise),
			survey.RatingAnswer("lecturer-01", 3-noise),
			survey.RatingAnswer("lecturer-02", noise),
		},
	}
}

// TestParentBinaryLogOpensAndTakesAppends: a binary log the parent
// commit's binary wrote opens with the same contents as the JSON-lines
// reference (which the open converts to blocks), takes new appends — which land as binary payloads behind
// the old JSON ones, in the same file — and reopens with both kinds of
// payload replayed in order.
func TestParentBinaryLogOpensAndTakesAppends(t *testing.T) {
	path := copyFixture(t, "parent_binary.log")
	opts := FileOptions{Sync: SyncAlways, Codec: blockio.CodecBinary} // the benchmark's shim values
	if j, b := payloadKinds(t, path); j != 303 || b != 0 {
		t.Fatalf("fixture holds %d JSON and %d binary response payloads, want 303 and 0", j, b)
	}
	refPath := copyFixture(t, "parent_reference.jsonl")
	ref, err := OpenFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if bin, err := blockio.Sniff(refPath); err != nil || !bin {
		t.Fatalf("the JSON-lines reference did not convert on open (%v)", err)
	}
	st, err := OpenFileWith(path, opts)
	if err != nil {
		t.Fatalf("parent-written log does not open: %v", err)
	}
	sameContents(t, st, ref)

	// New appends, to both stores: a one-record commit (stored block), a
	// three-record batch, and a batch long enough to be compressed.
	for _, target := range []*File{st, ref} {
		if err := target.AppendResponse(lecturerResponse3("new-1", 0.123456789)); err != nil {
			t.Fatal(err)
		}
		small := []survey.Response{*lecturerResponse3("new-2", 1e-9), *lecturerResponse3("new-3", -2.5), *lecturerResponse3("new-4", 7)}
		if _, err := target.AppendResponses(small); err != nil {
			t.Fatal(err)
		}
		var big []survey.Response
		for i := 0; i < 40; i++ {
			big = append(big, *lecturerResponse3("new-big", float64(i)/7))
		}
		if _, err := target.AppendResponses(big); err != nil {
			t.Fatal(err)
		}
	}
	sameContents(t, st, ref)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if j, b := payloadKinds(t, path); j != 303 || b != 44 {
		t.Fatalf("after appends: %d JSON and %d binary response payloads, want 303 and 44", j, b)
	}
	st2, err := OpenFileWith(path, opts)
	if err != nil {
		t.Fatalf("mixed-payload log does not reopen: %v", err)
	}
	defer st2.Close()
	sameContents(t, st2, ref)
}

// TestTornStoredBlockRepaired: a crash that leaves part of a stored
// (uncompressed) block at the tail of a parent-written log is repaired
// to the last whole block on open, as a torn compressed block is.
func TestTornStoredBlockRepaired(t *testing.T) {
	path := copyFixture(t, "parent_binary.log")
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(lecturerResponse3("kept", 0.5)); err != nil {
		t.Fatal(err)
	}
	whole, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResponse(lecturerResponse3("torn", 0.25)); err != nil {
		t.Fatal(err)
	}
	want := st.ResponseCount(survey.LecturerID) - 1
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if full.Size()-whole.Size() >= blockio.StoredBlockMax {
		t.Fatalf("the torn commit was %d bytes: not a stored block", full.Size()-whole.Size())
	}
	if err := os.Truncate(path, (whole.Size()+full.Size())/2); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("torn log does not open: %v", err)
	}
	defer st2.Close()
	if got := st2.ResponseCount(survey.LecturerID); got != want {
		t.Fatalf("%d responses after repair, want %d", got, want)
	}
	if fi, _ := os.Stat(path); fi.Size() != whole.Size() {
		t.Fatalf("repaired to %d bytes, want the last whole block at %d", fi.Size(), whole.Size())
	}
	rs, err := CollectResponses(st2, survey.LecturerID)
	if err != nil {
		t.Fatal(err)
	}
	if rs[len(rs)-1].WorkerID != "kept" {
		t.Fatalf("last response after repair is %q", rs[len(rs)-1].WorkerID)
	}
	if err := st2.AppendResponse(lecturerResponse3("after", 0.75)); err != nil {
		t.Fatalf("repaired log refuses appends: %v", err)
	}
}
