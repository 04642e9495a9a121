package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// maxBody bounds request bodies (specs and batches).
const maxBody = 64 << 20

// routes wires the HTTP API. See cmd/crowdjoind's package documentation
// for the full surface with curl examples.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /jobs/{id}/batches", s.handleBatch)
	s.mux.HandleFunc("GET /tenants/{id}/usage", s.handleUsage)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /jobs: validate the spec, admit it against the
// tenant's limits, persist it, and start the session.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	if err := spec.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	jb, err := s.submit(&spec)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrTooManyJobs) {
			code = http.StatusTooManyRequests
		}
		writeError(w, code, "%v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+jb.id)
	writeJSON(w, http.StatusCreated, jb.status())
}

// handleList is GET /jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobList()})
}

// handleStatus is GET /jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, jb.status())
}

// handleResult is GET /jobs/{id}/result: the final (or, for cancelled
// jobs, partial) clusters and labels. 409 while the job is still running;
// ?format=text renders the clusters in cmd/crowdjoin's plain-text format.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	jb.mu.Lock()
	state, clusters, unsaved := jb.state, jb.clusters, jb.unsaved
	jb.mu.Unlock()
	stored := state == StateDone || state == StateCancelled
	switch {
	case state == StateRunning:
		writeError(w, http.StatusConflict, "job still running")
	case !stored && unsaved == nil:
		writeError(w, http.StatusNotFound, "job %s: no result (%s)", jb.id, state)
	case r.URL.Query().Get("format") == "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(jb.clustersText(clusters)))
	case stored:
		s.serveStoredResult(w, jb.id)
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(unsaved.encode())
	}
}

// serveStoredResult writes a done or cancelled job's result.json, the
// bytes finish encoded once, as the response body.
func (s *Server) serveStoredResult(w http.ResponseWriter, id string) {
	f, err := s.store.openResult(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "job %s: reading result: %v", id, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	if fi, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	}
	_, _ = io.Copy(w, f)
}

// handleEvents is GET /jobs/{id}/events: the job's progress stream as
// server-sent events, sequence-numbered for Last-Event-ID resumption. One
// loop serves replay and live events alike: it copies out a batch of the
// events after its cursor, formats them into one reused buffer (the JSON
// through JobEvent.appendJSON, with no allocation per event), sends them
// with one write and one flush, and waits for a wake-up only when it has
// caught up. The stream ends (cleanly) once the job reaches a terminal
// state, or when this follower falls more than hubBuffer events behind;
// its client then resumes with Last-Event-ID from what the ring retains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	after := int64(-1)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprint(w, "retry: 1000\n\n")
	fl.Flush()

	wake, cursor := jb.hub.subscribe(after)
	defer jb.hub.unsubscribe(wake)
	var (
		events []JobEvent
		frames []byte
	)
	for {
		var lost, closed bool
		events, lost, closed = jb.hub.read(cursor, events[:0])
		if lost || (len(events) == 0 && closed) {
			return
		}
		if len(events) == 0 {
			select {
			case <-r.Context().Done():
				return
			case <-wake:
			}
			continue
		}
		frames = frames[:0]
		for i := range events {
			e := &events[i]
			frames = append(frames, "id: "...)
			frames = strconv.AppendInt(frames, e.Seq, 10)
			frames = append(frames, "\nevent: "...)
			frames = append(frames, e.Kind...)
			frames = append(frames, "\ndata: "...)
			frames = e.appendJSON(frames)
			frames = append(frames, "\n\n"...)
		}
		if _, err := w.Write(frames); err != nil {
			return
		}
		fl.Flush()
		cursor = events[len(events)-1].Seq
	}
}

// handleCancel is DELETE /jobs/{id}: cancel the session. The job winds
// down to a valid partial result (every deduction implied by the answers
// bought so far is applied) which stays available at /result.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	jb.mu.Lock()
	running := jb.state == StateRunning
	jb.mu.Unlock()
	if !running {
		writeJSON(w, http.StatusOK, jb.status())
		return
	}
	jb.cancel(errCancelled)
	writeJSON(w, http.StatusAccepted, jb.status())
}

// handleBatch is POST /jobs/{id}/batches: append records to a streaming
// job (and/or finalize it with "final": true). The batch is fsynced to the
// job's batch log before the 202, so an acknowledged batch survives a
// crash and is replayed into the resumed session.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !jb.spec.Streaming {
		writeError(w, http.StatusBadRequest, "job is not streaming")
		return
	}
	var b batchLine
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	if len(b.Records) == 0 && !b.Final {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if err := checkRecords(b.Records); err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}
	// Persist before queueing, with intake serialized per job so the batch
	// log's order matches the session's integration order (the order a
	// resumed session replays).
	jb.batchMu.Lock()
	jb.mu.Lock()
	acceptable := jb.state == StateRunning && !jb.finalSeen
	jb.mu.Unlock()
	if !acceptable {
		jb.batchMu.Unlock()
		writeError(w, http.StatusConflict, "job no longer accepts batches")
		return
	}
	if err := s.store.appendBatch(jb.id, b); err != nil {
		jb.batchMu.Unlock()
		writeError(w, http.StatusInternalServerError, "persisting batch: %v", err)
		return
	}
	err := jb.acceptBatch(b)
	jb.batchMu.Unlock()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job":     jb.id,
		"records": len(b.Records),
		"final":   b.Final,
	})
}

// handleUsage is GET /tenants/{id}/usage.
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.accts.usage(r.PathValue("id")))
}
