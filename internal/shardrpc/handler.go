package shardrpc

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
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
// node's mux next to (or instead of) the public API; the cluster token
// guards the whole surface.
type Handler struct {
	backend Backend
	mux     *http.ServeMux
	guarded http.Handler
}

// NewHandler builds the shardrpc handler: a request to any path without
// "Authorization: Bearer <token>" is a 401.
func NewHandler(backend Backend, token string) (*Handler, error) {
	if backend == nil {
		return nil, errors.New("shardrpc: handler needs a backend")
	}
	if token == "" {
		return nil, errors.New("shardrpc: handler needs a cluster token")
	}
	h := &Handler{backend: backend, mux: http.NewServeMux()}
	h.guarded = RequireBearer(token, "cluster", h.mux)
	h.mux.HandleFunc("GET /shardrpc/v1/meta", h.handleMeta)
	h.mux.HandleFunc("POST /shardrpc/v1/submit", h.handleSubmit)
	h.mux.HandleFunc("GET /shardrpc/v1/shards/{shard}/scan", h.handleScan)
	h.mux.HandleFunc("GET /shardrpc/v1/shards/{shard}/count", h.handleCount)
	h.mux.HandleFunc("POST /shardrpc/v1/partial", h.handlePartials)
	h.mux.HandleFunc("GET /shardrpc/v1/shards/{shard}/tail", h.handleTail)
	h.mux.HandleFunc("GET /shardrpc/v1/surveys", h.handleSurveys)
	h.mux.HandleFunc("GET /shardrpc/v1/surveys/{id}", h.handleSurvey)
	h.mux.HandleFunc("POST /shardrpc/v1/surveys", h.handlePublish)
	// The budget surface is optional: nodes that host budget shards
	// implement BudgetBackend and get its routes; plain backends do not.
	if bb, ok := backend.(BudgetBackend); ok {
		h.registerBudget(bb)
	}
	return h, nil
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.guarded.ServeHTTP(w, r)
}

// RequireBearer is every audience's bearer check: without "Bearer
// <token>" a request gets 401 "missing or invalid <audience> token", and
// an empty token opens nothing. The compare is constant-time: how long a
// refusal takes must not say how much of the header matched.
func RequireBearer(token, audience string, h http.Handler) http.Handler {
	want, refusal := []byte("Bearer "+token), "missing or invalid "+audience+" token"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if token == "" || subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			writeErr(w, http.StatusUnauthorized, refusal)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// writeBackendErr maps backend errors to transport statuses (see
// backendStatus), with the shed's Retry-After.
func writeBackendErr(w http.ResponseWriter, err error) {
	status, retryAfter := backendStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeErr(w, status, err.Error())
}

// backendStatus maps a backend error to its transport status: unknown
// survey → 404, unowned shard → 421 (the
// caller's placement map is wrong), an epoch fence → 412 (nothing was
// appended; the sender refreshes its manifest, not the batch), a shed →
// 429 with the retry hint in seconds (nothing was appended; the sender
// retries the whole batch after it), anything else → 400 (validation) so
// the sender does not blindly retry a rejected record.
func backendStatus(err error) (status, retryAfter int) {
	var notOwned *ErrNotOwned
	var overloaded *OverloadedError
	switch {
	case errors.As(err, &notOwned):
		return http.StatusMisdirectedRequest, 0
	case errors.Is(err, ErrFenced):
		return http.StatusPreconditionFailed, 0
	case errors.As(err, &overloaded):
		return http.StatusTooManyRequests, overloaded.RetryAfterSeconds
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound, 0
	}
	return http.StatusBadRequest, 0
}

func (h *Handler) handleMeta(w http.ResponseWriter, _ *http.Request) {
	writeOK(w, h.backend.Meta())
}

// handleSubmit is decode → Backend.Submit → encode; every gate lives
// behind the backend. A body that is not a sections body is a 400
// before the backend runs. The call is answered 200 with a
// SectionsResult: each section's status, and inline its result — for a
// plain batch that failed mid-way, the durable prefix the sender must
// not resubmit.
func (h *Handler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	secs := readSubmitBody(w, r)
	if secs == nil {
		return
	}
	outs := h.backend.Submit(r.Context(), secs)
	res := SectionsResult{Sections: make([]SectionResult, len(outs))}
	for i, o := range outs {
		sr := &res.Sections[i]
		sr.Status, sr.SubmitResult = http.StatusOK, o.Result
		if o.Result != nil {
			res.Appended += o.Result.Appended
		}
		if o.Err != nil {
			sr.Status, sr.RetryAfter = backendStatus(o.Err)
			sr.Error = o.Err.Error()
		}
	}
	writeOK(w, &res)
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
	writeFramed(w, batch)
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

// handlePartials answers one partial per requested shard, in request
// order, each the backend's PartialState for that shard and cursor. An
// entry the backend refuses fails the whole call with its status: a
// frontend fails a read whole on an owner's error anyway.
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
	writeFramed(w, batch)
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
	o, err := h.backend.Publish(req.Survey)
	if err != nil {
		writeBackendErr(w, err)
		return
	}
	writeOK(w, PublishResult{ID: req.Survey.ID, Outcome: o.String()})
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

// readSubmitBody is readJSON for the sections body, under the same size
// cap: the sections it carries, or nil after writing the 400. The
// pooled buffer can go straight back: decoding copies every string out
// of it.
func readSubmitBody(w http.ResponseWriter, r *http.Request) SubmitSections {
	if ct := r.Header.Get("Content-Type"); ct != SubmitContentType {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("submit body must be %s, not %q", SubmitContentType, ct))
		return nil
	}
	buf := getBuf()
	defer putBuf(buf)
	var secs SubmitSections
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = secs.UnmarshalBinary(buf.Bytes())
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "malformed binary body: "+err.Error())
		return nil
	}
	return secs
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

// writeFramed answers the bulk read paths (tail shipping, replica
// bootstrap scans): the JSON body compressed into one blockio wire
// frame, marked by its content type.
func writeFramed(w http.ResponseWriter, v any) {
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
