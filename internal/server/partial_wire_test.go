package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loki/internal/shardrpc"
)

// The node-side partial wire — POST /shardrpc/v1/partial — held byte for
// byte to the answers a frontend's conditional fetch can draw from a node
// or a replica.
//
// testdata/partial_wire/*.golden were written by the commit before the
// batched partial route existed (47cec2f), from the per-shard GET route
// that route replaced: status, Content-Type and body of each answer. They
// stay as they are, as the oracle for the batched route: a partial entry
// is the very object the GET answered for the same shard and cursor, and
// a refused fetch draws the GET's status for the whole call.

// partialWireCase is one conditional fetch: which server, shard, survey
// and have cursor it asks for, and with which credentials.
type partialWireCase struct {
	name    string
	replica bool // ask the replica following the node
	shard   int
	survey  string
	have    uint64
	noToken bool
}

var partialWireCases = []partialWireCase{
	{name: "full", survey: "cluster"},
	{name: "not_modified", survey: "cluster", have: 5},
	{name: "delta", survey: "cluster", have: 3},
	{name: "resync_full", survey: "cluster", have: 99},
	{name: "replica_stale", replica: true, survey: "cluster"},
	{name: "unowned", shard: 7, survey: "cluster"},
	{name: "unknown_survey", survey: "ghost"},
	{name: "no_token", survey: "cluster", noToken: true},
}

// partialWireFixture is a node holding five records on shard 0 of a
// two-shard cluster, and a replica caught up with it.
type partialWireFixture struct{ node, replica string }

func newPartialWireFixture(t *testing.T) partialWireFixture {
	t.Helper()
	wn := newWireNode(t, wireNodeOpts{})
	rng := rand.New(rand.NewSource(27))
	req := &shardrpc.SubmitRequest{Shard: 0}
	for i := 0; i < 5; i++ {
		req.Responses = append(req.Responses, *randomResponse(clusterTestSurvey(), rng, i))
	}
	if r := postSubmit(t, wn.url, req); r.status != http.StatusOK {
		t.Fatalf("fixture submit: %v", r)
	}
	rep, ts := newFollower(t, shardrpc.NewClient(wn.url, testToken, nil), FollowOptions{})
	rep.ApplyManifest(followManifest(t, 2, wn.url, ts.URL, 1), ts.URL)
	rep.SyncOnce()
	return partialWireFixture{node: wn.url, replica: ts.URL}
}

// partialReply is the part of a partial answer the contract pins.
type partialReply struct {
	status int
	ctype  string
	body   []byte
}

func (r partialReply) String() string {
	return fmt.Sprintf("status: %d\nContent-Type: %s\nbody:\n%s", r.status, r.ctype, r.body)
}

// goldenPartial reads a case's golden.
func goldenPartial(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "partial_wire", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// fetch asks for the case's shard and cursor through the batched route,
// behind the given other shards (each asked with no cursor), and returns
// the reply with, for a 200, the case's entry as its body.
func (c partialWireCase) fetch(t *testing.T, f partialWireFixture, others ...int) partialReply {
	t.Helper()
	req := shardrpc.PartialsRequest{SurveyID: c.survey}
	for _, s := range others {
		req.Shards = append(req.Shards, shardrpc.ShardCursor{Shard: s})
	}
	req.Shards = append(req.Shards, shardrpc.ShardCursor{Shard: c.shard, Have: c.have})
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	base := f.node
	if c.replica {
		base = f.replica
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/shardrpc/v1/partial", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !c.noToken {
		hreq.Header.Set("Authorization", "Bearer "+testToken)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	r := partialReply{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: raw}
	if r.status != http.StatusOK {
		return r
	}
	var res struct{ Partials []json.RawMessage }
	if err := json.Unmarshal(raw, &res); err != nil || len(res.Partials) != len(req.Shards) {
		t.Fatalf("reply does not answer %d shards (%v): %s", len(req.Shards), err, raw)
	}
	r.body = append(res.Partials[len(others)], '\n')
	return r
}

// checkPartial holds a reply to the case's golden: the status and
// Content-Type, and the body — a 200's entry or a refusal's error.
func checkPartial(t *testing.T, c partialWireCase, got partialReply) {
	t.Helper()
	if want := goldenPartial(t, c.name); got.String() != want {
		t.Fatalf("partial wire reply changed\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPartialWireGolden holds a call for the case's one shard to the
// goldens.
func TestPartialWireGolden(t *testing.T) {
	f := newPartialWireFixture(t)
	for _, c := range partialWireCases {
		t.Run(c.name, func(t *testing.T) { checkPartial(t, c, c.fetch(t, f)) })
	}
}

// TestPartialWireBatchedMatchesGet: the case's entry of a call that asks
// for the node's other shard first is still the object the GET answered,
// and a refused fetch draws the GET's status for the whole call.
func TestPartialWireBatchedMatchesGet(t *testing.T) {
	f := newPartialWireFixture(t)
	for _, c := range partialWireCases {
		t.Run(c.name, func(t *testing.T) {
			other := 1
			if c.shard == 1 {
				other = 0
			}
			got := c.fetch(t, f, other)
			if got.status != http.StatusOK {
				if want := fmt.Sprintf("status: %d\n", got.status); !strings.HasPrefix(goldenPartial(t, c.name), want) {
					t.Fatalf("status %d, not the GET's\n%s", got.status, got.body)
				}
				return
			}
			checkPartial(t, c, got)
		})
	}
}
