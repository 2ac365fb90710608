package shardrpc

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"loki/internal/blockio"
	"loki/internal/store"
	"loki/internal/survey"
)

// maxScanPage bounds one scan/tail page so a cold replica syncing a
// large shard cannot make the node materialize an unbounded response.
const maxScanPage = 4096

// Handler serves the shardrpc surface over a Backend. Mount it on the
// node's mux next to (or instead of) the public API; every route is
// guarded by the cluster token.
type Handler struct {
	backend Backend
	token   string
	mux     *http.ServeMux
}

// NewHandler builds the shardrpc handler. The token guards every route
// — cluster-internal traffic carries "Authorization: Bearer <token>"
// exactly like the public API's requester endpoints.
func NewHandler(backend Backend, token string) (*Handler, error) {
	if backend == nil {
		return nil, errors.New("shardrpc: handler needs a backend")
	}
	if token == "" {
		return nil, errors.New("shardrpc: handler needs a cluster token")
	}
	h := &Handler{backend: backend, token: token, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /shardrpc/v1/meta", h.guard(h.handleMeta))
	h.mux.HandleFunc("POST /shardrpc/v1/submit", h.guard(h.handleSubmit))
	h.mux.HandleFunc("GET /shardrpc/v1/shards/{shard}/scan", h.guard(h.handleScan))
	h.mux.HandleFunc("GET /shardrpc/v1/shards/{shard}/count", h.guard(h.handleCount))
	h.mux.HandleFunc("POST /shardrpc/v1/partial", h.guard(h.handlePartials))
	h.mux.HandleFunc("GET /shardrpc/v1/shards/{shard}/partial", h.guard(h.handlePartial))
	h.mux.HandleFunc("GET /shardrpc/v1/shards/{shard}/tail", h.guard(h.handleTail))
	h.mux.HandleFunc("GET /shardrpc/v1/surveys", h.guard(h.handleSurveys))
	h.mux.HandleFunc("GET /shardrpc/v1/surveys/{id}", h.guard(h.handleSurvey))
	h.mux.HandleFunc("POST /shardrpc/v1/surveys", h.guard(h.handlePublish))
	// The budget surface is optional: nodes that host budget shards
	// implement BudgetBackend and get its routes; plain backends do not.
	if bb, ok := backend.(BudgetBackend); ok {
		h.registerBudget(bb)
	}
	return h, nil
}

// ServeHTTP implements http.Handler. Every reply, whatever the route or
// status, advertises the binary submit body this handler reads; clients
// that have seen it stop sending JSON (see AcceptHeader).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(AcceptHeader, SubmitContentType)
	h.mux.ServeHTTP(w, r)
}

// guard wraps every route with cluster-token auth. The compare is
// constant-time: how long a refusal takes must not say how much of the
// header matched.
func (h *Handler) guard(fn http.HandlerFunc) http.HandlerFunc {
	want := []byte("Bearer " + h.token)
	return func(w http.ResponseWriter, r *http.Request) {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			writeErr(w, http.StatusUnauthorized, "missing or invalid cluster token")
			return
		}
		fn(w, r)
	}
}

// writeBackendErr maps backend errors to transport statuses: unknown
// survey → 404, duplicate publish → 409, unowned shard → 421 (the
// caller's placement map is wrong), anything else → 400 (validation)
// so the sender does not blindly retry a rejected record.
func writeBackendErr(w http.ResponseWriter, err error) {
	var notOwned *ErrNotOwned
	var overloaded *OverloadedError
	switch {
	case errors.As(err, &notOwned):
		writeErr(w, http.StatusMisdirectedRequest, err.Error())
	case errors.Is(err, ErrFenced):
		// An epoch fence: the sender's placement view is stale. Nothing
		// was appended; the sender refreshes its manifest, not the batch.
		writeErr(w, http.StatusPreconditionFailed, err.Error())
	case errors.As(err, &overloaded):
		// The node shed the batch at admission: nothing was appended,
		// the sender retries the whole batch after the hint.
		w.Header().Set("Retry-After", strconv.Itoa(overloaded.RetryAfterSeconds))
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, store.ErrNotFound):
		writeErr(w, http.StatusNotFound, err.Error())
	case errors.Is(err, store.ErrExists):
		writeErr(w, http.StatusConflict, err.Error())
	default:
		writeErr(w, http.StatusBadRequest, err.Error())
	}
}

func (h *Handler) handleMeta(w http.ResponseWriter, _ *http.Request) {
	writeOK(w, h.backend.Meta())
}

// handleSubmit is decode → Backend.Submit → encode; every gate lives
// behind the backend. The request body is binary or JSON by its content
// type; the reply is JSON. A result returned beside an error is the
// durable prefix of a plain batch that failed mid-way: the sender must
// not resubmit it.
func (h *Handler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if r.Header.Get("Content-Type") == SubmitContentType {
		if !readBinary(w, r, &req) {
			return
		}
	} else if !readJSON(w, r, &req) {
		return
	}
	res, err := h.backend.Submit(r.Context(), &req)
	if err != nil {
		if res != nil {
			w.Header().Set(AppendedHeader, strconv.Itoa(res.Appended))
		}
		writeBackendErr(w, err)
		return
	}
	writeOK(w, res)
}

func (h *Handler) handleScan(w http.ResponseWriter, r *http.Request) {
	shard, ok := pathShard(w, r)
	if !ok {
		return
	}
	surveyID := r.URL.Query().Get("survey")
	from, err := strconv.ParseUint(qDefault(r, "from", "0"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad from cursor")
		return
	}
	max, err := strconv.Atoi(qDefault(r, "max", "1024"))
	if err != nil || max <= 0 {
		writeErr(w, http.StatusBadRequest, "bad max")
		return
	}
	if max > maxScanPage {
		max = maxScanPage
	}
	batch := ScanBatch{NextSeq: from}
	scanErr := h.backend.ScanShard(shard, surveyID, from, func(seq uint64, resp *survey.Response) error {
		batch.Records = append(batch.Records, ScanRecord{Seq: seq, Response: resp.Clone()})
		batch.NextSeq = seq
		if len(batch.Records) >= max {
			return errPageFull
		}
		return nil
	})
	if scanErr != nil && !errors.Is(scanErr, errPageFull) {
		writeBackendErr(w, scanErr)
		return
	}
	batch.More = errors.Is(scanErr, errPageFull)
	writeMaybeFramed(w, r, batch)
}

// errPageFull aborts a scan once a page is full.
var errPageFull = errors.New("shardrpc: page full")

func (h *Handler) handleCount(w http.ResponseWriter, r *http.Request) {
	shard, ok := pathShard(w, r)
	if !ok {
		return
	}
	writeOK(w, CountResult{Count: h.backend.CountShard(shard, r.URL.Query().Get("survey"))})
}

func (h *Handler) handlePartial(w http.ResponseWriter, r *http.Request) {
	shard, ok := pathShard(w, r)
	if !ok {
		return
	}
	have, err := strconv.ParseUint(qDefault(r, "have", "0"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad have cursor")
		return
	}
	p, err := h.backend.PartialState(shard, r.URL.Query().Get("survey"), have)
	if err != nil {
		writeBackendErr(w, err)
		return
	}
	writeOK(w, p)
}

// handlePartials answers one partial per requested shard, in request
// order, each exactly what handlePartial answers for that shard and
// cursor. An entry the backend refuses fails the whole call with its
// status: a frontend fails a read whole on an owner's error anyway.
func (h *Handler) handlePartials(w http.ResponseWriter, r *http.Request) {
	var req PartialsRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := req.Validate(h.backend.Meta().TotalShards); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	res := PartialsResult{Partials: make([]*Partial, len(req.Shards))}
	for i, sc := range req.Shards {
		p, err := h.backend.PartialState(sc.Shard, req.SurveyID, sc.Have)
		if err != nil {
			writeBackendErr(w, err)
			return
		}
		res.Partials[i] = p
	}
	writeOK(w, &res)
}

func (h *Handler) handleTail(w http.ResponseWriter, r *http.Request) {
	shard, ok := pathShard(w, r)
	if !ok {
		return
	}
	epoch, err := strconv.ParseUint(qDefault(r, "epoch", "0"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad epoch")
		return
	}
	offset, err := strconv.ParseUint(qDefault(r, "offset", "0"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad offset")
		return
	}
	max, err := strconv.Atoi(qDefault(r, "max", "1024"))
	if err != nil || max <= 0 {
		writeErr(w, http.StatusBadRequest, "bad max")
		return
	}
	if max > maxScanPage {
		max = maxScanPage
	}
	batch, err := h.backend.Tail(shard, epoch, offset, max, r.URL.Query().Get("follower"))
	if err != nil {
		writeBackendErr(w, err)
		return
	}
	writeMaybeFramed(w, r, batch)
}

func (h *Handler) handleSurveys(w http.ResponseWriter, _ *http.Request) {
	svs, err := h.backend.Surveys()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeOK(w, svs)
}

func (h *Handler) handleSurvey(w http.ResponseWriter, r *http.Request) {
	sv, err := h.backend.Survey(r.PathValue("id"))
	if err != nil {
		writeBackendErr(w, err)
		return
	}
	writeOK(w, sv)
}

func (h *Handler) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req PublishRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Survey == nil {
		writeErr(w, http.StatusBadRequest, "publish request without a survey")
		return
	}
	var err error
	if req.Replace {
		err = h.backend.ReplaceSurvey(req.Survey)
	} else {
		err = h.backend.PutSurvey(req.Survey)
	}
	if err != nil {
		writeBackendErr(w, err)
		return
	}
	writeOK(w, map[string]string{"id": req.Survey.ID})
}

// ---------------------------------------------------------------------------
// Small HTTP helpers (the transport is internal; bodies are bounded by
// the node's front proxy or the in-process client, so no MaxBytesReader
// ceremony beyond a sane cap).

const maxBodyBytes = 32 << 20 // submit batches dominate; 32 MiB is generous

func pathShard(w http.ResponseWriter, r *http.Request) (int, bool) {
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 {
		writeErr(w, http.StatusBadRequest, "bad shard index")
		return 0, false
	}
	return shard, true
}

func qDefault(r *http.Request, key, def string) string {
	if v := r.URL.Query().Get(key); v != "" {
		return v
	}
	return def
}

// readBinary is readJSON for a submit body in its binary encoding, under
// the same size cap. The pooled buffer can go straight back: decoding
// copies every string out of it.
func readBinary(w http.ResponseWriter, r *http.Request, dst *SubmitRequest) bool {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed binary body: "+err.Error())
		return false
	}
	if err := dst.UnmarshalBinary(buf.Bytes()); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed binary body: "+err.Error())
		return false
	}
	return true
}

func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(dst); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	_, _ = io.Copy(io.Discard, body)
	return true
}

// writeOK encodes through a pooled buffer: response bodies are the
// node's half of the shardrpc hot paths (snapshot and submit replies),
// and encoding straight into the ResponseWriter would allocate the
// encoder's scratch per request instead of reusing it.
func writeOK(w http.ResponseWriter, v any) {
	buf, err := encodeJSON(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

// writeMaybeFramed answers the bulk read paths (tail shipping, replica
// bootstrap scans): callers that negotiated codec=binary get the JSON
// body compressed into one blockio wire frame, marked by its content
// type; everyone else (and every older peer) gets plain JSON. The
// negotiation is per request, so mixed-version clusters keep working.
func writeMaybeFramed(w http.ResponseWriter, r *http.Request, v any) {
	if r.URL.Query().Get("codec") != blockio.CodecBinary {
		writeOK(w, v)
		return
	}
	buf, err := encodeJSON(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	frame, err := blockio.EncodeFrame(buf.Bytes())
	putBuf(buf)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "frame response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", blockio.FrameContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
