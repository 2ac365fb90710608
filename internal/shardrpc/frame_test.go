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

// TestTailWireFrameNegotiation: tail-ship and scan replies are always
// one blockio wire frame of their JSON, whether or not the request
// names codec=binary (a client keeps naming it for nodes from before),
// and the client reads them.
func TestTailWireFrameNegotiation(t *testing.T) {
	c, base := newFrameTestNode(t)
	sv := rpcSurvey("sv")
	if _, err := c.Publish(sv); err != nil {
		t.Fatal(err)
	}
	batch := make([]survey.Response, 64)
	for i := range batch {
		batch[i] = rpcResponse("sv", i)
	}
	if _, err := c.Submit(&SubmitRequest{Shard: 0, Responses: batch}); err != nil {
		t.Fatal(err)
	}

	// Bootstrap a follower cursor so the tails below have entries.
	tb, err := c.Tail(0, 0, 0, 100, "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb, err = c.Tail(0, tb.Epoch, 0, 100, "t"); err != nil {
		t.Fatal(err)
	}
	if len(tb.Entries) != len(batch) {
		t.Fatalf("client tail carried %d entries, want %d", len(tb.Entries), len(batch))
	}
	sb, err := c.Scan(0, "sv", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Records) != len(batch) {
		t.Fatalf("client scan carried %d records, want %d", len(sb.Records), len(batch))
	}

	for _, codec := range []string{"&codec=binary", ""} {
		for path, records := range map[string]func(raw []byte) (int, error){
			fmt.Sprintf("/shardrpc/v1/shards/0/tail?epoch=%d&offset=0&max=100&follower=t", tb.Epoch): func(raw []byte) (int, error) {
				var b shardset.TailBatch
				err := json.Unmarshal(raw, &b)
				return len(b.Entries), err
			},
			"/shardrpc/v1/shards/0/scan?survey=sv&from=0&max=100": func(raw []byte) (int, error) {
				var b ScanBatch
				err := json.Unmarshal(raw, &b)
				return len(b.Records), err
			},
		} {
			resp, body := rawGet(t, base, path+codec)
			if ct := resp.Header.Get("Content-Type"); ct != blockio.FrameContentType {
				t.Fatalf("%s: content type %q", path+codec, ct)
			}
			raw, err := blockio.DecodeFrame(body)
			if err != nil {
				t.Fatalf("%s: %v", path+codec, err)
			}
			if n, err := records(raw); err != nil || n != len(batch) {
				t.Fatalf("%s: framed reply carried %d records (%v), want %d", path+codec, n, err, len(batch))
			}
			if len(body) >= len(raw) {
				t.Fatalf("%s: frame (%d bytes) did not compress the JSON (%d bytes)", path+codec, len(body), len(raw))
			}
		}
	}
}
