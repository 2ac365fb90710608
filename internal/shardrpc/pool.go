package shardrpc

import (
	"bytes"
	"encoding/json"
	"sync"
)

// The shardrpc hot paths — batch submits from the frontend's batchers
// and partial/scan/tail responses on the node — encode one body per
// request (JSON, or the binary submit body). Encoding into a fresh
// []byte every time makes growth reallocations the dominant allocation
// on those paths, so both sides rent a bytes.Buffer from a shared pool
// instead (the node reads a binary submit body into one too):
// the buffer grows to the working set once and is reused across
// requests. See BenchmarkEncodePooled/BenchmarkEncodeUnpooled for the
// allocs/op delta.

// maxPooledBuf caps what goes back into the pool: a rare giant body
// (a cold replica's 4096-record tail page) must not pin megabytes of
// buffer for the common small requests.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBuf rents an empty buffer.
func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// putBuf returns a buffer to the pool (oversized ones are dropped for
// the GC).
func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// encodeJSON encodes v into a pooled buffer. The caller owns the
// returned buffer and must putBuf it when the bytes are no longer
// referenced (after the HTTP write / after the request is sent).
func encodeJSON(v any) (*bytes.Buffer, error) {
	buf := getBuf()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		putBuf(buf)
		return nil, err
	}
	return buf, nil
}

// pooledBody serves a pooled buffer's bytes as a request body and
// recycles the buffer when the Transport closes it. Close is the ONLY
// safe recycle point on the client side: RoundTrip may keep writing
// the body from a background goroutine after Do returns (e.g. when
// the peer answers early without draining), so recycling on return
// would hand the backing array to a concurrent request mid-read. The
// Transport is documented to always close the body, on every path.
type pooledBody struct {
	r    *bytes.Reader
	buf  *bytes.Buffer
	once sync.Once
}

func newPooledBody(buf *bytes.Buffer) *pooledBody {
	return &pooledBody{r: bytes.NewReader(buf.Bytes()), buf: buf}
}

// Read implements io.Reader.
func (p *pooledBody) Read(b []byte) (int, error) { return p.r.Read(b) }

// Close implements io.Closer, returning the buffer to the pool once.
func (p *pooledBody) Close() error {
	p.once.Do(func() { putBuf(p.buf) })
	return nil
}
