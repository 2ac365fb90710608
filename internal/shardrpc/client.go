package shardrpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"loki/internal/blockio"
	"loki/internal/shardset"
	"loki/internal/store"
	"loki/internal/survey"
)

// Client speaks shardrpc to one node.
type Client struct {
	base  string // e.g. "http://10.0.0.7:8080"
	token string
	http  *http.Client
}

// NewClient builds a client for the node at baseURL. A nil httpClient
// uses a dedicated client with a conservative timeout (cluster links
// are LAN-fast; a hung peer should fail the request, not the caller's
// goroutine budget).
func NewClient(baseURL, token string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: baseURL, token: token, http: httpClient}
}

// BaseURL returns the node address the client targets.
func (c *Client) BaseURL() string { return c.base }

// remoteError carries a peer's error payload with its HTTP status, and
// re-wraps the store sentinels so errors.Is works across the wire.
type remoteError struct {
	Status int
	Msg    string
	// RetryAfter is the peer's Retry-After header in seconds (a shed
	// batch from an overloaded node); 0 when absent.
	RetryAfter int
}

// Error implements error.
func (e *remoteError) Error() string {
	return fmt.Sprintf("shardrpc: peer returned %d: %s", e.Status, e.Msg)
}

// Unwrap maps transport statuses back to the sentinels the local path
// returns, so callers handle local and remote stores identically. A
// 429 is a peer's admission shed — it unwraps to OverloadedError so
// the frontend's submit path keeps the retryable vocabulary.
func (e *remoteError) Unwrap() error {
	switch e.Status {
	case http.StatusNotFound:
		return store.ErrNotFound
	case http.StatusTooManyRequests:
		return &OverloadedError{RetryAfterSeconds: e.RetryAfter}
	case http.StatusPreconditionFailed:
		// A peer's epoch fence; the structured fields stay behind on the
		// node, but errors.Is(err, ErrFenced) works across the wire.
		return ErrFenced
	default:
		return nil
	}
}

// do sends one call whose request body, if any, is the JSON of in.
func (c *Client) do(method, path string, query url.Values, in, out any) error {
	var buf *bytes.Buffer
	if in != nil {
		var err error
		if buf, err = encodeJSON(in); err != nil {
			return fmt.Errorf("shardrpc: marshal request: %w", err)
		}
	}
	return c.send(method, path, query, buf, "application/json", out)
}

// send is do with the request body already encoded, as ctype, into a
// pooled buffer it takes ownership of (nil: no body). Bodies go through
// the shared buffer pool because submit batches are the client's hot
// path, and a per-request []byte would make encoder growth the dominant
// allocation. The buffer is recycled by pooledBody.Close when the
// Transport is done with it — recycling any earlier races a background
// body write.
func (c *Client) send(method, path string, query url.Values, buf *bytes.Buffer, ctype string, out any) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var body *pooledBody
	var bodyReader io.Reader // a typed-nil *pooledBody must not reach NewRequest
	if buf != nil {
		body = newPooledBody(buf)
		bodyReader = body
	}
	req, err := http.NewRequest(method, u, bodyReader)
	if err != nil {
		if body != nil {
			body.Close()
		}
		return fmt.Errorf("shardrpc: build request: %w", err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	if buf != nil {
		req.Header.Set("Content-Type", ctype)
		// NewRequest cannot size an opaque reader; set the length so
		// the wire keeps Content-Length framing. GetBody stays nil on
		// purpose: a replay would read a possibly recycled buffer.
		req.ContentLength = int64(body.r.Len())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("shardrpc: %s %s: %w", method, path, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var payload struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&payload)
		if payload.Error == "" {
			payload.Error = resp.Status
		}
		retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return &remoteError{Status: resp.StatusCode, Msg: payload.Error, RetryAfter: retryAfter}
	}
	if out == nil {
		return nil
	}
	if f, ok := out.(framed); ok {
		frame, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err != nil {
			return fmt.Errorf("shardrpc: read %s response: %w", path, err)
		}
		raw, err := blockio.DecodeFrame(frame)
		if err != nil {
			return fmt.Errorf("shardrpc: decode %s frame: %w", path, err)
		}
		if err := json.Unmarshal(raw, f.v); err != nil {
			return fmt.Errorf("shardrpc: decode %s response: %w", path, err)
		}
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("shardrpc: decode %s response: %w", path, err)
	}
	return nil
}

// framed is the out of a call whose reply is one blockio frame of the
// JSON of v (scan and tail).
type framed struct{ v any }

// Meta fetches the node's shard ownership map.
func (c *Client) Meta() (*Meta, error) {
	var m Meta
	if err := c.do(http.MethodGet, "/shardrpc/v1/meta", nil, nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Submit sends one routed batch — responses, the placement epoch the
// sender routed under (0 = unstamped) and any piggybacked budget
// charges — to the node as a call of one section; see Backend.Submit
// for the contract. A 412 unwraps to ErrFenced, a 429 to
// OverloadedError.
func (c *Client) Submit(req *SubmitRequest) (*SubmitResult, error) {
	o := c.SubmitSections(SubmitSections{*req})[0]
	return o.Result, o.Err
}

// SubmitSections sends one node call — a section per shard, the binary
// sections body — and returns each section's outcome, aligned: its
// result; its refusal, an error that unwraps as a reply of the
// section's status would (a 412 to ErrFenced, a 429 to
// OverloadedError); or — a plain section whose append failed — both,
// the result holding the durable prefix. A call that fails whole fails
// every section.
func (c *Client) SubmitSections(secs SubmitSections) []SubmitOutcome {
	outs := make([]SubmitOutcome, len(secs))
	buf := getBuf()
	b, _ := secs.AppendBinary(buf.AvailableBuffer()) // cannot fail
	buf.Write(b)
	var res SectionsResult
	err := c.send(http.MethodPost, "/shardrpc/v1/submit", nil, buf, SubmitContentType, &res)
	if err == nil && len(res.Sections) != len(secs) {
		err = fmt.Errorf("%w: %d section results for %d sections", errProtocol, len(res.Sections), len(secs))
	}
	for i := range outs {
		if err != nil {
			outs[i].Err = err
			continue
		}
		switch sr := &res.Sections[i]; {
		case sr.Status == http.StatusOK && sr.SubmitResult != nil:
			outs[i].Result = sr.SubmitResult
		case sr.Status == http.StatusOK:
			outs[i].Err = fmt.Errorf("%w: section %d answered without a result", errProtocol, i)
		default:
			outs[i].Result = sr.SubmitResult
			outs[i].Err = &remoteError{Status: sr.Status, Msg: sr.Error, RetryAfter: sr.RetryAfter}
		}
	}
	return outs
}

// Scan fetches one page of a cursor scan. The reply is always framed;
// codec=binary asks a node from before that for the frame too.
func (c *Client) Scan(shard int, surveyID string, from uint64, max int) (*ScanBatch, error) {
	q := url.Values{
		"survey": {surveyID},
		"from":   {strconv.FormatUint(from, 10)},
		"max":    {strconv.Itoa(max)},
		"codec":  {blockio.CodecBinary},
	}
	var batch ScanBatch
	if err := c.do(http.MethodGet, "/shardrpc/v1/shards/"+strconv.Itoa(shard)+"/scan", q, nil, framed{&batch}); err != nil {
		return nil, err
	}
	return &batch, nil
}

// Count fetches one shard's response count for a survey.
func (c *Client) Count(shard int, surveyID string) (int, error) {
	var res CountResult
	q := url.Values{"survey": {surveyID}}
	if err := c.do(http.MethodGet, "/shardrpc/v1/shards/"+strconv.Itoa(shard)+"/count", q, nil, &res); err != nil {
		return 0, err
	}
	return res.Count, nil
}

// Partials is the conditional fetch for several of the node's shards in
// one call: for each entry of req.Shards the node replies not-modified,
// a delta covering (have, cursor], or a full snapshot — see Partial —
// in request order. An entry the node cannot answer fails the whole
// call with that entry's status (421 unowned, 404 unknown survey). A
// reply that does not answer exactly the shards asked for, in order, is
// a protocol error, not a transport one.
func (c *Client) Partials(req *PartialsRequest) ([]*Partial, error) {
	var res PartialsResult
	if err := c.do(http.MethodPost, "/shardrpc/v1/partial", nil, req, &res); err != nil {
		return nil, err
	}
	if len(res.Partials) != len(req.Shards) {
		return nil, fmt.Errorf("%w: %d partials answer %d shards", errProtocol, len(res.Partials), len(req.Shards))
	}
	for i, p := range res.Partials {
		if p == nil || p.Shard != req.Shards[i].Shard {
			return nil, fmt.Errorf("%w: partial %d does not answer shard %d", errProtocol, i, req.Shards[i].Shard)
		}
	}
	return res.Partials, nil
}

// Tail fetches one page of WAL-tail shipping, framed like Scan's. A
// non-empty follower id registers the caller with the node's
// journal-truncation accounting (the offset doubles as the ack of
// everything before it).
func (c *Client) Tail(shard int, epoch, offset uint64, max int, follower string) (*shardset.TailBatch, error) {
	q := url.Values{
		"epoch":  {strconv.FormatUint(epoch, 10)},
		"offset": {strconv.FormatUint(offset, 10)},
		"max":    {strconv.Itoa(max)},
		"codec":  {blockio.CodecBinary},
	}
	if follower != "" {
		q.Set("follower", follower)
	}
	var batch shardset.TailBatch
	if err := c.do(http.MethodGet, "/shardrpc/v1/shards/"+strconv.Itoa(shard)+"/tail", q, nil, framed{&batch}); err != nil {
		return nil, err
	}
	return &batch, nil
}

// Survey fetches one survey definition.
func (c *Client) Survey(id string) (*survey.Survey, error) {
	var sv survey.Survey
	if err := c.do(http.MethodGet, "/shardrpc/v1/surveys/"+url.PathEscape(id), nil, nil, &sv); err != nil {
		return nil, err
	}
	return &sv, nil
}

// Surveys fetches every survey definition.
func (c *Client) Surveys() ([]*survey.Survey, error) {
	var svs []*survey.Survey
	if err := c.do(http.MethodGet, "/shardrpc/v1/surveys", nil, nil, &svs); err != nil {
		return nil, err
	}
	return svs, nil
}

// Publish sends a definition to the node and returns the outcome it
// decided. A reply without one (a node older than the field) reads as
// store.Replaced.
func (c *Client) Publish(sv *survey.Survey) (store.Outcome, error) {
	var res PublishResult
	if err := c.do(http.MethodPost, "/shardrpc/v1/surveys", nil, &PublishRequest{Survey: sv, Replace: true}, &res); err != nil {
		return store.Unchanged, err
	}
	for o := store.Unchanged; o < store.Replaced; o++ {
		if res.Outcome == o.String() {
			return o, nil
		}
	}
	return store.Replaced, nil
}
