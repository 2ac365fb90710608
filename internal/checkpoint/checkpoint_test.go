package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loki/internal/aggregate"
	"loki/internal/blockio"
	"loki/internal/core"
	"loki/internal/logtest"
	"loki/internal/survey"
)

func testSurvey() *survey.Survey {
	return &survey.Survey{
		ID:    "ckpt-test",
		Title: "Checkpoint test survey",
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q1", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
		},
		RewardCents: 1,
	}
}

// filledState folds n responses and snapshots the accumulator.
func filledState(t *testing.T, sv *survey.Survey, n int) *aggregate.AccumulatorState {
	t.Helper()
	acc, err := aggregate.NewAccumulator(core.DefaultSchedule(), sv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := &survey.Response{
			SurveyID:     sv.ID,
			WorkerID:     "w",
			PrivacyLevel: "medium",
			Obfuscated:   true,
			Answers: []survey.Answer{
				survey.RatingAnswer("q0", float64(1+i%5)),
				survey.ChoiceAnswer("q1", i%3),
			},
		}
		if err := acc.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return acc.Snapshot()
}

func record(t *testing.T, sv *survey.Survey, n int) *Record {
	t.Helper()
	return &Record{
		SurveyID:      sv.ID,
		Fingerprint:   sv.Fingerprint(),
		Cursor:        uint64(n),
		State:         filledState(t, sv, n),
		SavedUnixNano: time.Now().UnixNano(),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sv := testSurvey()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(record(t, sv, 7)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec, ok := l2.Get(sv.ID)
	if !ok {
		t.Fatal("checkpoint lost across reopen")
	}
	if rec.Cursor != 7 || rec.Fingerprint != sv.Fingerprint() {
		t.Fatalf("record = cursor %d fp %q", rec.Cursor, rec.Fingerprint)
	}
	// The restored state must rebuild a working accumulator holding the
	// folded responses.
	acc, err := aggregate.RestoreAccumulator(core.DefaultSchedule(), sv, rec.State)
	if err != nil {
		t.Fatal(err)
	}
	if acc.N() != 7 {
		t.Fatalf("restored N = %d, want 7", acc.N())
	}
}

func TestLaterRecordsSupersede(t *testing.T) {
	dir := t.TempDir()
	sv := testSurvey()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 5, 9} {
		if err := l.Put(record(t, sv, n)); err != nil {
			t.Fatal(err)
		}
	}
	if rec, _ := l.Get(sv.ID); rec.Cursor != 9 {
		t.Fatalf("in-memory cursor = %d, want 9", rec.Cursor)
	}
	l.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec, ok := l2.Get(sv.ID); !ok || rec.Cursor != 9 {
		t.Fatalf("replayed cursor = %v, want 9", rec)
	}
	if l2.Len() != 1 {
		t.Fatalf("len = %d, want 1", l2.Len())
	}
}

func TestDropTombstone(t *testing.T) {
	dir := t.TempDir()
	sv := testSurvey()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Drop("absent"); err != nil { // no-op
		t.Fatal(err)
	}
	if err := l.Put(record(t, sv, 4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Drop(sv.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get(sv.ID); ok {
		t.Fatal("dropped checkpoint still served")
	}
	l.Close()

	// The tombstone must survive replay: the checkpoint stays dead after
	// a restart (this is what makes republish invalidation durable).
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, ok := l2.Get(sv.ID); ok {
		t.Fatal("tombstoned checkpoint resurrected by replay")
	}
}

// TestTornTailTruncated: a crash mid-append leaves a partial last line
// in a JSON-lines file; Open must drop it and serve the previous record
// for that survey, and the next Put converts the file to blocks.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	sv := testSurvey()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(record(t, sv, 5)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	path := filepath.Join(dir, surveysDir, surveyFileName(sv.ID))
	if err := logtest.WriteJSONLines(path, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"survey_id":"ckpt-test","cursor":99,"state":{"survey`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	defer l2.Close()
	rec, ok := l2.Get(sv.ID)
	if !ok || rec.Cursor != 5 {
		t.Fatalf("after torn tail: %+v, want cursor 5", rec)
	}
	// The truncation is durable: the torn bytes are gone from disk.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"cursor":99`) {
		t.Fatal("torn record still on disk")
	}
	// And the log still appends after the repair, in blocks.
	if err := l2.Put(record(t, sv, 6)); err != nil {
		t.Fatal(err)
	}
	if bin, err := blockio.Sniff(path); err != nil || !bin {
		t.Fatalf("the first Put left a JSON-lines file: %v %v", bin, err)
	}
}

// TestInteriorCorruptionSkipped: garbage lines in the middle of a
// JSON-lines file are skipped and counted, never a refused open —
// checkpoints are advisory, so damage costs catch-up scanning, not
// startup. A compaction then rewrites the log clean.
func TestInteriorCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	sv := testSurvey()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(record(t, sv, 5)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, surveysDir, surveyFileName(sv.ID))
	if err := logtest.WriteJSONLines(path, nil); err != nil {
		t.Fatal(err)
	}
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString("not json\n")
	f.WriteString(`{"cursor":3}` + "\n") // parseable but no survey ID
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("interior corruption refused the open: %v", err)
	}
	if got := l2.CorruptRecords(); got != 2 {
		t.Errorf("corrupt records = %d, want 2", got)
	}
	// The readable record is still served, and the log still works.
	if rec, ok := l2.Get(sv.ID); !ok || rec.Cursor != 5 {
		t.Fatalf("surviving record = %+v, want cursor 5", rec)
	}
	if err := l2.Put(record(t, sv, 6)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := l3.CorruptRecords(); got != 0 {
		t.Errorf("corruption survived compaction: %d records", got)
	}
	if rec, ok := l3.Get(sv.ID); !ok || rec.Cursor != 6 {
		t.Fatalf("after compaction: %+v, want cursor 6", rec)
	}
}

// TestCompaction: superseded records are rewritten away and the
// compacted log replays to the same state.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	sv := testSurvey()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Enough rewrites of one survey to cross the compaction threshold
	// several times over.
	for n := 1; n <= 100; n++ {
		if err := l.Put(record(t, sv, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	records := 0
	if err := blockio.ReplayFile(filepath.Join(dir, surveysDir, surveyFileName(sv.ID)), false, func([]byte) error {
		records++
		return nil
	}); err != nil || records != 1 {
		t.Fatalf("compacted log has %d records (%v), want 1", records, err)
	}
	l.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec, ok := l2.Get(sv.ID); !ok || rec.Cursor != 100 {
		t.Fatalf("after compaction: %+v, want cursor 100", rec)
	}
}

func TestPutValidation(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Put(&Record{SurveyID: "x"}); err == nil {
		t.Error("stateless record accepted")
	}
	if err := l.Put(&Record{State: &aggregate.AccumulatorState{}}); err == nil {
		t.Error("record without survey ID accepted")
	}
}

// TestPerShardRecords: shard records of one survey live independently
// and round-trip with their layout coordinates.
func TestPerShardRecords(t *testing.T) {
	dir := t.TempDir()
	sv := testSurvey()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 3; shard++ {
		rec := record(t, sv, 2+shard)
		rec.Shard = shard
		rec.ShardCount = 3
		if err := l.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1 survey", l.Len())
	}
	if len(l.Records()) != 3 {
		t.Fatalf("records = %d, want 3 shards", len(l.Records()))
	}
	l.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for shard := 0; shard < 3; shard++ {
		rec, ok := l2.GetShard(sv.ID, shard)
		if !ok {
			t.Fatalf("shard %d lost", shard)
		}
		if rec.Cursor != uint64(2+shard) || rec.NumShards() != 3 {
			t.Fatalf("shard %d = cursor %d layout %d", shard, rec.Cursor, rec.NumShards())
		}
	}
	// Drop removes every shard at once.
	if err := l2.Drop(sv.ID); err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 0 {
		t.Fatal("drop left shard records")
	}
}

// TestParallelRestoreManySurveys: many per-survey files replay to the
// same state they were written with (the restore fan-out is an
// implementation detail; correctness is what this pins).
func TestParallelRestoreManySurveys(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const surveys = 40
	for i := 0; i < surveys; i++ {
		sv := testSurvey()
		sv.ID = fmt.Sprintf("sv-%03d", i)
		rec := record(t, sv, i+1)
		rec.SurveyID = sv.ID
		rec.State.SurveyID = sv.ID
		rec.Fingerprint = sv.Fingerprint()
		if err := l.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != surveys {
		t.Fatalf("replayed %d surveys, want %d", l2.Len(), surveys)
	}
	for i := 0; i < surveys; i++ {
		id := fmt.Sprintf("sv-%03d", i)
		rec, ok := l2.Get(id)
		if !ok || rec.Cursor != uint64(i+1) {
			t.Fatalf("survey %s = %+v", id, rec)
		}
	}
}

// TestStateRecordAboveStoredBlockCutOver pins the coupling between this
// log and blockio.StoredBlockMax: Put commits one record per block, and
// even the smallest state-carrying record — an empty fold of a
// one-question survey — is at or above the cut-over, so checkpoint
// blocks are deflated exactly as before the stored-block path existed
// (only Drop's tombstone, a few dozen bytes, is stored raw). If this
// fails, the cut-over or the record moved: checkpoint.bytes on the
// benchmark's standalone_mixed workload is what to re-measure.
func TestStateRecordAboveStoredBlockCutOver(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWith(dir, Options{Codec: blockio.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	sv := &survey.Survey{ID: "s", Title: "t", Questions: []survey.Question{
		{ID: "q", Kind: survey.MultipleChoice, Options: []string{"a", "b"}},
	}}
	if err := l.Put(&Record{SurveyID: sv.ID, Fingerprint: sv.Fingerprint(), State: filledState(t, sv, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "surveys", "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("survey files: %v, %v", files, err)
	}
	records := 0
	if _, err := blockio.Replay(files[0], false, func(_ uint64, p []byte) error {
		records++
		// One record per block: varint length + CRC + payload.
		if raw := len(p) + 6; raw < blockio.StoredBlockMax {
			t.Errorf("smallest state record makes a %d-byte block, below the %d-byte stored cut-over", raw, blockio.StoredBlockMax)
		}
		return nil
	}); err != nil || records != 1 {
		t.Fatalf("replay: %d records, %v", records, err)
	}
}
