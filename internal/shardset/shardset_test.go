package shardset

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"loki/internal/store"
	"loki/internal/survey"
)

func testSurvey(id string) *survey.Survey {
	return &survey.Survey{
		ID:    id,
		Title: "Shardset test survey",
		Questions: []survey.Question{
			{ID: "q0", Text: "rate", Kind: survey.Rating, ScaleMin: 1, ScaleMax: 5},
			{ID: "q1", Text: "pick", Kind: survey.MultipleChoice, Options: []string{"a", "b", "c"}},
		},
		RewardCents: 1,
	}
}

func testResponse(surveyID string, i int) *survey.Response {
	return &survey.Response{
		SurveyID:     surveyID,
		WorkerID:     fmt.Sprintf("w%05d", i),
		PrivacyLevel: "none",
		Answers: []survey.Answer{
			survey.RatingAnswer("q0", float64(1+i%5)),
			survey.ChoiceAnswer("q1", i%3),
		},
	}
}

// appendRouted appends one response to the shard placement gives it.
func appendRouted(l *Local, r *survey.Response) (int, error) {
	return l.AppendShard(l.Route(r.SurveyID, r.WorkerID), r)
}

func newMemLocal(t *testing.T, shards int, opts LocalOptions) *Local {
	t.Helper()
	stores := make([]store.Store, shards)
	for i := range stores {
		stores[i] = store.NewMem()
	}
	l, err := NewLocal(stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestRouteDeterministicAndSpread: placement depends only on the
// (survey, worker) pair and actually uses every shard.
func TestRouteDeterministicAndSpread(t *testing.T) {
	const shards = 8
	used := make(map[int]int)
	for i := 0; i < 1000; i++ {
		w := fmt.Sprintf("w%05d", i)
		a := Route("sv", w, shards)
		if b := Route("sv", w, shards); a != b {
			t.Fatalf("route not deterministic: %d vs %d", a, b)
		}
		if a < 0 || a >= shards {
			t.Fatalf("route %d outside [0, %d)", a, shards)
		}
		used[a]++
	}
	if len(used) != shards {
		t.Fatalf("1000 workers hit only %d of %d shards", len(used), shards)
	}
}

// TestLocalAppendScanMerged: responses spread across shards, per-shard
// seqs are gap-free, and ScanMerged delivers every record exactly once
// in a deterministic order.
func TestLocalAppendScanMerged(t *testing.T) {
	const shards, n = 4, 200
	l := newMemLocal(t, shards, LocalOptions{})
	sv := testSurvey("sv")
	if err := l.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := appendRouted(l, testResponse(sv.ID, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := Count(l, sv.ID); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	// Per-shard seqs are 1..count with no gaps.
	for s := 0; s < shards; s++ {
		want := uint64(1)
		err := l.ScanShard(s, sv.ID, 0, func(seq uint64, _ *survey.Response) error {
			if seq != want {
				return fmt.Errorf("shard %d: seq %d, want %d", s, seq, want)
			}
			want++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(want-1) != l.CountShard(s, sv.ID) {
			t.Fatalf("shard %d scan delivered %d of %d", s, want-1, l.CountShard(s, sv.ID))
		}
	}
	// The merged scan sees every worker exactly once, and two merges
	// agree record for record.
	var order1, order2 []string
	seen := make(map[string]bool)
	cur, err := ScanMerged(l, sv.ID, nil, func(_ int, _ uint64, r *survey.Response) error {
		if seen[r.WorkerID] {
			return fmt.Errorf("worker %s delivered twice", r.WorkerID)
		}
		seen[r.WorkerID] = true
		order1 = append(order1, r.WorkerID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order1) != n {
		t.Fatalf("merged scan delivered %d of %d", len(order1), n)
	}
	if cur.Total() != n {
		t.Fatalf("cursor total = %d, want %d", cur.Total(), n)
	}
	if _, err := ScanMerged(l, sv.ID, nil, func(_ int, _ uint64, r *survey.Response) error {
		order2 = append(order2, r.WorkerID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatalf("merge order differs at %d: %s vs %s", i, order1[i], order2[i])
		}
	}
	// Resuming from a mid-stream cursor delivers exactly the tail.
	half := NewCursor(shards)
	count := 0
	if _, err := ScanMerged(l, sv.ID, nil, func(shard int, seq uint64, _ *survey.Response) error {
		count++
		if count <= n/2 {
			half[shard] = seq
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tail := 0
	if _, err := ScanMerged(l, sv.ID, half, func(int, uint64, *survey.Response) error {
		tail++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tail != n-n/2 {
		t.Fatalf("resumed merge delivered %d, want %d", tail, n-n/2)
	}
}

// TestLocalSingleIsPassthrough: the one-shard wrapper routes everything
// to shard 0 with the store's own seqs — the standalone adapter.
func TestLocalSingleIsPassthrough(t *testing.T) {
	st := store.NewMem()
	l := NewLocalSingle(st)
	defer l.Close()
	sv := testSurvey("sv")
	if err := l.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if l.Route(sv.ID, fmt.Sprintf("w%d", i)) != 0 {
			t.Fatal("single-shard route != 0")
		}
		stored, err := appendRouted(l, testResponse(sv.ID, i))
		if err != nil {
			t.Fatal(err)
		}
		if stored != i+1 {
			t.Fatalf("stored = %d, want %d", stored, i+1)
		}
	}
	if st.ResponseCount(sv.ID) != 10 {
		t.Fatalf("store count = %d", st.ResponseCount(sv.ID))
	}
}

// TestAppendShardBatch: batch appends assign the same seqs a loop
// would, on both batch-capable and plain stores.
func TestAppendShardBatch(t *testing.T) {
	l := newMemLocal(t, 2, LocalOptions{Journal: true})
	sv := testSurvey("sv")
	if err := l.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	batch := make([]survey.Response, 5)
	for i := range batch {
		batch[i] = *testResponse(sv.ID, i)
	}
	counts, err := l.AppendShardBatch(1, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != i+1 {
			t.Fatalf("counts = %v", counts)
		}
	}
	if l.CountShard(1, sv.ID) != 5 || l.CountShard(0, sv.ID) != 0 {
		t.Fatal("batch landed on the wrong shard")
	}
	// The journal saw all five in order.
	tb, err := l.Tail(1, 0, 0, 100, "")
	if err != nil {
		t.Fatal(err)
	}
	tb, err = l.Tail(1, tb.Epoch, 0, 100, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Entries) != 5 {
		t.Fatalf("journal holds %d entries, want 5", len(tb.Entries))
	}
	for i, e := range tb.Entries {
		if e.Seq != uint64(i+1) || e.Response.WorkerID != batch[i].WorkerID {
			t.Fatalf("entry %d = (%d, %s)", i, e.Seq, e.Response.WorkerID)
		}
	}
}

// TestJournalTail: paging, lag reporting, and the epoch-mismatch resync
// signal.
func TestJournalTail(t *testing.T) {
	l := newMemLocal(t, 1, LocalOptions{Journal: true})
	sv := testSurvey("sv")
	if err := l.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := appendRouted(l, testResponse(sv.ID, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 0 never matches a live journal: the first poll returns the
	// real epoch and nothing else.
	first, err := l.Tail(0, 0, 7, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch == 0 || len(first.Entries) != 0 || first.NextOffset != 0 {
		t.Fatalf("bootstrap batch = %+v", first)
	}
	// Page through the whole journal.
	offset, got := uint64(0), 0
	for {
		b, err := l.Tail(0, first.Epoch, offset, 10, "")
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range b.Entries {
			if e.Seq != offset+uint64(i)+1 {
				t.Fatalf("entry seq %d at offset %d", e.Seq, offset)
			}
		}
		got += len(b.Entries)
		offset = b.NextOffset
		if b.NextOffset >= b.End {
			break
		}
	}
	if got != n {
		t.Fatalf("tailed %d of %d", got, n)
	}
	// Offsets beyond the journal under a matching epoch are a protocol
	// error.
	if _, err := l.Tail(0, first.Epoch, uint64(n+1), 10, ""); err == nil {
		t.Fatal("offset beyond journal accepted")
	}
}

// TestJournalRebuildChangesEpoch: reopening the stores under a new
// router rebuilds the journal with a fresh epoch, forcing followers to
// resync.
func TestJournalRebuildChangesEpoch(t *testing.T) {
	st := store.NewMem()
	l1, err := NewLocal([]store.Store{st}, LocalOptions{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	sv := testSurvey("sv")
	if err := l1.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := appendRouted(l1, testResponse(sv.ID, i)); err != nil {
			t.Fatal(err)
		}
	}
	b1, err := l1.Tail(0, 0, 0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	// "Restart": a new router over the same store.
	l2, err := NewLocal([]store.Store{st}, LocalOptions{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := l2.Tail(0, b1.Epoch, 3, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if b2.Epoch == b1.Epoch {
		t.Fatal("rebuilt journal kept its epoch")
	}
	if b2.NextOffset != 0 || len(b2.Entries) != 0 {
		t.Fatalf("epoch mismatch should reset, got %+v", b2)
	}
	// The rebuilt journal still serves the full history from zero.
	b3, err := l2.Tail(0, b2.Epoch, 0, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(b3.Entries) != 5 {
		t.Fatalf("rebuilt journal holds %d entries, want 5", len(b3.Entries))
	}
}

// unscanned is a store whose records cannot be read, only counted.
type unscanned struct{ *store.Mem }

func (unscanned) ScanResponses(string, uint64, func(uint64, *survey.Response) error) error {
	return fmt.Errorf("the journal rebuild read a record")
}

// TestJournalRebuildCountsRecords: rebuilding a journal over three
// surveys, one of them empty, lists every survey's seqs 1..count in
// survey-ID order — what a scan of every record listed — without
// reading a record.
func TestJournalRebuildCountsRecords(t *testing.T) {
	mem := store.NewMem()
	counts := map[string]int{"a": 4, "b": 0, "c": 7}
	for id := range counts {
		if err := mem.PutSurvey(testSurvey(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		for _, id := range []string{"c", "a"} {
			if i < counts[id] {
				if err := mem.AppendResponse(testResponse(id, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var want []journalEntry
	var wantBytes int64
	for _, id := range []string{"a", "b", "c"} {
		if err := mem.ScanResponses(id, 0, func(seq uint64, _ *survey.Response) error {
			want = append(want, journalEntry{surveyID: id, seq: seq})
			wantBytes += journalEntrySize(&want[len(want)-1])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	j, err := rebuildJournal(unscanned{mem}, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.entries, want) || j.retainedBytes != wantBytes || j.epoch != 3 {
		t.Fatalf("rebuilt journal %+v (%d bytes), want %+v (%d bytes)", j.entries, j.retainedBytes, want, wantBytes)
	}
}

// TestSurveyBroadcast: definitions land on every shard, so any shard
// can validate appends on its own.
func TestSurveyBroadcast(t *testing.T) {
	l := newMemLocal(t, 3, LocalOptions{})
	sv := testSurvey("sv")
	if err := l.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	if err := l.PutSurvey(sv); err == nil {
		t.Fatal("duplicate publish accepted")
	}
	for s := 0; s < 3; s++ {
		if _, err := l.Store(s).Survey(sv.ID); err != nil {
			t.Fatalf("shard %d missing the definition: %v", s, err)
		}
	}
	sv2 := testSurvey("sv")
	sv2.Title = "Republished"
	if err := l.ReplaceSurvey(sv2); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		got, err := l.Store(s).Survey(sv.ID)
		if err != nil || got.Title != "Republished" {
			t.Fatalf("shard %d: %v %v", s, got, err)
		}
	}
}

// TestJournalTruncationByAcks: entries below every registered
// follower's ack are dropped; unregistered callers never constrain or
// trigger truncation; a follower asking below the truncation base gets
// the Truncated resync signal with the base to resume from.
func TestJournalTruncationByAcks(t *testing.T) {
	l := newMemLocal(t, 1, LocalOptions{Journal: true})
	sv := testSurvey("sv")
	if err := l.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := appendRouted(l, testResponse(sv.ID, i)); err != nil {
			t.Fatal(err)
		}
	}
	boot, err := l.Tail(0, 0, 0, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	epoch := boot.Epoch

	// An anonymous reader pages the whole journal without registering:
	// nothing truncates.
	if _, err := l.Tail(0, epoch, 30, 10, ""); err != nil {
		t.Fatal(err)
	}
	if st := l.JournalStats()[0]; st.Base != 0 || st.Entries != n || st.Followers != 0 {
		t.Fatalf("anonymous tailing changed retention: %+v", st)
	}

	// Two registered followers: the journal truncates to the slower
	// one's ack, no further. (The slow one registers first — a lone
	// follower's ack would truncate to itself immediately.)
	if _, err := l.Tail(0, epoch, 10, 10, "slow"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Tail(0, epoch, 25, 10, "fast"); err != nil {
		t.Fatal(err)
	}
	st := l.JournalStats()[0]
	if st.Base != 10 || st.Entries != n-10 || st.Followers != 2 || st.TruncatedEntries != 10 {
		t.Fatalf("after acks 25/10: %+v", st)
	}
	if st.RetainedBytes <= 0 {
		t.Fatalf("retained bytes = %d", st.RetainedBytes)
	}

	// The slow follower catches up; the floor moves with it.
	if _, err := l.Tail(0, epoch, 25, 10, "slow"); err != nil {
		t.Fatal(err)
	}
	if st := l.JournalStats()[0]; st.Base != 25 || st.Entries != n-25 {
		t.Fatalf("after slow ack 25: %+v", st)
	}

	// Entries above the base still serve exactly.
	b, err := l.Tail(0, epoch, 30, 5, "fast")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 5 || b.Entries[0].Seq != 31 {
		t.Fatalf("post-truncation page = %+v", b)
	}

	// A newcomer below the base gets the Truncated signal pointing at
	// the base — and its registration pins the floor from here on.
	nb, err := l.Tail(0, epoch, 0, 10, "newcomer")
	if err != nil {
		t.Fatal(err)
	}
	if !nb.Truncated || nb.NextOffset != 25 || len(nb.Entries) != 0 {
		t.Fatalf("below-base tail = %+v", nb)
	}
	if _, err := l.Tail(0, epoch, 25, 10, "newcomer"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Tail(0, epoch, uint64(n), 10, "fast"); err != nil {
		t.Fatal(err)
	}
	if st := l.JournalStats()[0]; st.Base != 25 {
		t.Fatalf("newcomer ack did not pin the floor: %+v", st)
	}
}

// TestJournalRetainBound: a retain bound truncates even without
// followers (the no-replica node whose journal would otherwise grow
// with its whole history) and even past a registered follower's ack.
func TestJournalRetainBound(t *testing.T) {
	l := newMemLocal(t, 1, LocalOptions{Journal: true, JournalRetain: 8})
	sv := testSurvey("sv")
	if err := l.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := appendRouted(l, testResponse(sv.ID, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.JournalStats()[0]
	if st.Entries != 8 || st.Base != 22 || st.TruncatedEntries != 22 {
		t.Fatalf("retain bound not enforced: %+v", st)
	}
	// A follower acks low; the bound still wins and the follower is
	// told to resync from the base.
	boot, err := l.Tail(0, 0, 0, 10, "lagger")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Tail(0, boot.Epoch, 2, 10, "lagger")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Truncated || b.NextOffset != 22 {
		t.Fatalf("lagging follower reply = %+v", b)
	}
	for i := 0; i < 10; i++ {
		if _, err := appendRouted(l, testResponse(sv.ID, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.JournalStats()[0]; st.Entries != 8 || st.Base != 32 {
		t.Fatalf("retain bound ignored the lagging ack: %+v", st)
	}

	// The rebuilt journal honors the bound from the start.
	l2, err := NewLocal([]store.Store{l.Store(0)}, LocalOptions{Journal: true, JournalRetain: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := l2.JournalStats()[0]; st.Entries != 8 || st.Base != 32 {
		t.Fatalf("rebuilt journal retention: %+v", st)
	}
}

// TestFollowerAckTTL: a follower that goes silent past the ack TTL
// stops pinning journal retention — the live follower's ack becomes the
// truncation floor — and re-registers (through the Truncated resync
// path if needed) when it returns.
func TestFollowerAckTTL(t *testing.T) {
	l := newMemLocal(t, 1, LocalOptions{Journal: true, FollowerAckTTL: 10 * time.Minute})
	sv := testSurvey("sv")
	if err := l.PutSurvey(sv); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := appendRouted(l, testResponse(sv.ID, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Inject a fake clock so the test controls the TTL.
	now := time.Unix(1_700_000_000, 0)
	j := l.journals[0]
	j.mu.Lock()
	j.now = func() time.Time { return now }
	j.mu.Unlock()

	boot, err := l.Tail(0, 0, 0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	epoch := boot.Epoch

	// Two followers register; "dead" acks 5, "live" acks 20. The floor
	// is the dead one's ack.
	if _, err := l.Tail(0, epoch, 5, 5, "dead"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Tail(0, epoch, 20, 5, "live"); err != nil {
		t.Fatal(err)
	}
	if st := l.JournalStats()[0]; st.Base != 5 || st.Followers != 2 {
		t.Fatalf("with both followers live: %+v", st)
	}

	// "dead" goes silent past the TTL while "live" keeps tailing:
	// truncation proceeds to the live ack instead of staying pinned.
	now = now.Add(11 * time.Minute)
	if _, err := l.Tail(0, epoch, 30, 5, "live"); err != nil {
		t.Fatal(err)
	}
	st := l.JournalStats()[0]
	if st.Base != 30 || st.Followers != 1 || st.ExpiredFollowers != 1 {
		t.Fatalf("after TTL expiry: %+v", st)
	}

	// The departed follower returns below the base: it gets the
	// Truncated signal, rebuilds, and its fresh registration pins the
	// floor again.
	back, err := l.Tail(0, epoch, 10, 5, "dead")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Truncated || back.NextOffset != 30 {
		t.Fatalf("returned follower batch = %+v", back)
	}
	if _, err := l.Tail(0, epoch, 30, 5, "dead"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Tail(0, epoch, uint64(n), 5, "live"); err != nil {
		t.Fatal(err)
	}
	if st := l.JournalStats()[0]; st.Base != 30 || st.Followers != 2 {
		t.Fatalf("returned follower does not pin retention: %+v", st)
	}
}
