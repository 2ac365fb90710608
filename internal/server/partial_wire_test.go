package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loki/internal/shardrpc"
)

// The node-side partial wire — GET /shardrpc/v1/shards/{shard}/partial —
// pinned byte for byte: status, Content-Type and body for every answer a
// frontend's conditional fetch can draw from a node or a replica.
//
// testdata/partial_wire/*.golden were written by the commit before the
// batched partial route existed (47cec2f), from an export of it with this
// file copied in:
//
//	LOKI_FIXTURE_OUT=<repo>/internal/server/testdata/partial_wire \
//	    go test -run TestWritePartialWireGoldens ./internal/server
//
// The GET route must keep answering them exactly: a frontend from before
// the batched route reads through it while nodes are upgraded first. And
// every entry of a batched reply must be the very object the GET answers
// for the same shard and cursor.

// partialWireCase is one conditional fetch: which server, shard, survey
// and have cursor it asks for, and with which credentials.
type partialWireCase struct {
	name    string
	replica bool // ask the replica following the node
	shard   int
	survey  string
	// have is the cursor as sent: the GET's query value ("" sends none)
	// and, in the batched body, the raw JSON token ("" sends 0).
	have    string
	noToken bool
}

var partialWireCases = []partialWireCase{
	{name: "full", survey: "cluster"},
	{name: "not_modified", survey: "cluster", have: "5"},
	{name: "delta", survey: "cluster", have: "3"},
	{name: "resync_full", survey: "cluster", have: "99"},
	{name: "replica_stale", replica: true, survey: "cluster"},
	{name: "unowned", shard: 7, survey: "cluster"},
	{name: "unknown_survey", survey: "ghost"},
	{name: "bad_have", survey: "cluster", have: "x"},
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

func (c partialWireCase) do(t *testing.T, method, u string, body io.Reader) partialReply {
	t.Helper()
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		t.Fatal(err)
	}
	if !c.noToken {
		req.Header.Set("Authorization", "Bearer "+testToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return partialReply{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: raw}
}

func (c partialWireCase) base(f partialWireFixture) string {
	if c.replica {
		return f.replica
	}
	return f.node
}

// get is the per-shard fetch, with the query a frontend sends.
func (c partialWireCase) get(t *testing.T, f partialWireFixture) partialReply {
	q := url.Values{"survey": {c.survey}}
	if c.have != "" {
		q.Set("have", c.have)
	}
	return c.do(t, http.MethodGet, fmt.Sprintf("%s/shardrpc/v1/shards/%d/partial?%s", c.base(f), c.shard, q.Encode()), nil)
}

// batched asks for the same shard and cursor through the batched route.
func (c partialWireCase) batched(t *testing.T, f partialWireFixture) partialReply {
	have := c.have
	if have == "" {
		have = "0"
	}
	body := fmt.Sprintf(`{"survey_id":%q,"shards":[{"shard":%d,"have":%s}]}`, c.survey, c.shard, have)
	return c.do(t, http.MethodPost, c.base(f)+"/shardrpc/v1/partial", strings.NewReader(body))
}

// eachPartialWire runs every case's GET against one fixture.
func eachPartialWire(t *testing.T, fn func(t *testing.T, path, got string)) {
	f := newPartialWireFixture(t)
	for _, c := range partialWireCases {
		t.Run(c.name, func(t *testing.T) {
			fn(t, filepath.Join("partial_wire", c.name+".golden"), c.get(t, f).String())
		})
	}
}

// TestWritePartialWireGoldens is the script that records the goldens; it
// does nothing unless LOKI_FIXTURE_OUT names the directory to write.
func TestWritePartialWireGoldens(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("LOKI_FIXTURE_OUT not set")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	eachPartialWire(t, func(t *testing.T, path, got string) {
		if err := os.WriteFile(filepath.Join(out, filepath.Base(path)), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPartialWireGolden holds the per-shard GET to the goldens.
func TestPartialWireGolden(t *testing.T) {
	eachPartialWire(t, func(t *testing.T, path, got string) {
		want, err := os.ReadFile(filepath.Join("testdata", path))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("partial wire reply changed\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
	})
}

// TestPartialWireBatchedMatchesGet: for every case, the batched route's
// one entry is byte for byte the object the GET answers, and a refused
// fetch draws the GET's status for the whole call.
func TestPartialWireBatchedMatchesGet(t *testing.T) {
	f := newPartialWireFixture(t)
	for _, c := range partialWireCases {
		t.Run(c.name, func(t *testing.T) {
			get, bat := c.get(t, f), c.batched(t, f)
			if bat.status != get.status {
				t.Fatalf("batched status %d, GET %d\n%s", bat.status, get.status, bat.body)
			}
			if get.status != http.StatusOK {
				return
			}
			var res struct{ Partials []json.RawMessage }
			if err := json.Unmarshal(bat.body, &res); err != nil {
				t.Fatal(err)
			}
			if len(res.Partials) != 1 || !bytes.Equal(res.Partials[0], bytes.TrimSuffix(get.body, []byte("\n"))) {
				t.Fatalf("batched entries differ from the GET's object\n--- batched ---\n%s\n--- GET ---\n%s", bat.body, get.body)
			}
		})
	}
}
