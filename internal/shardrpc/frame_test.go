package shardrpc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"loki/internal/blockio"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// newFrameTestNode is newTestNode plus the raw base URL, for asserting
// on the wire representation itself.
func newFrameTestNode(t *testing.T) (*Client, string) {
	t.Helper()
	local, err := shardset.NewLocal([]store.Store{store.NewMem()}, shardset.LocalOptions{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	h, err := NewHandler(&testBackend{local: local, total: 1}, "cluster-token")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, "cluster-token", nil), ts.URL
}

// rawGet issues a shardrpc GET without the Client, so the test can see
// the wire headers and body exactly as a peer would.
func rawGet(t *testing.T, base, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer cluster-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTailWireFrameNegotiation: codec=binary compresses the tail-ship
// and scan bodies into blockio wire frames; without the parameter the
// node answers plain JSON, which is what keeps old peers working.
func TestTailWireFrameNegotiation(t *testing.T) {
	c, base := newFrameTestNode(t)
	sv := rpcSurvey("sv")
	if err := c.Publish(sv, false); err != nil {
		t.Fatal(err)
	}
	batch := make([]survey.Response, 64)
	for i := range batch {
		batch[i] = rpcResponse("sv", i)
	}
	if _, err := c.Submit(&SubmitRequest{Shard: 0, Responses: batch}); err != nil {
		t.Fatal(err)
	}

	// Bootstrap a follower cursor so the framed drain below has entries.
	tb, err := c.Tail(0, 0, 0, 100, "t")
	if err != nil {
		t.Fatal(err)
	}

	framedResp, framed := rawGet(t, base,
		fmt.Sprintf("/shardrpc/v1/shards/0/tail?epoch=%d&offset=0&max=100&follower=t&codec=binary", tb.Epoch))
	if ct := framedResp.Header.Get("Content-Type"); ct != blockio.FrameContentType {
		t.Fatalf("framed tail content type = %q", ct)
	}
	raw, err := blockio.DecodeFrame(framed)
	if err != nil {
		t.Fatal(err)
	}
	var framedBatch shardset.TailBatch
	if err := json.Unmarshal(raw, &framedBatch); err != nil {
		t.Fatal(err)
	}
	if len(framedBatch.Entries) != len(batch) {
		t.Fatalf("framed tail carried %d entries, want %d", len(framedBatch.Entries), len(batch))
	}

	jsonResp, plain := rawGet(t, base,
		fmt.Sprintf("/shardrpc/v1/shards/0/tail?epoch=%d&offset=0&max=100&follower=t", tb.Epoch))
	if ct := jsonResp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("plain tail content type = %q", ct)
	}
	var plainBatch shardset.TailBatch
	if err := json.Unmarshal(plain, &plainBatch); err != nil {
		t.Fatal(err)
	}
	if len(plainBatch.Entries) != len(batch) {
		t.Fatalf("plain tail carried %d entries, want %d", len(plainBatch.Entries), len(batch))
	}
	if len(framed) >= len(plain) {
		t.Fatalf("framed body (%d bytes) did not compress the JSON one (%d bytes)", len(framed), len(plain))
	}

	// The high-level client negotiates frames transparently.
	tb2, err := c.Tail(0, tb.Epoch, 0, 100, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb2.Entries) != len(batch) {
		t.Fatalf("client tail carried %d entries, want %d", len(tb2.Entries), len(batch))
	}
	sb, err := c.Scan(0, "sv", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Records) != len(batch) {
		t.Fatalf("client scan carried %d records, want %d", len(sb.Records), len(batch))
	}
}
