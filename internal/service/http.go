package service

import (
	"encoding/json"
	"errors"
	"net/http"
)

// maxControlBody caps the JSON control bodies (create-room, program-ghost):
// encoding/json buffers a whole value before decoding it, so without a cap
// one huge request could exhaust the daemon's memory. A one-hour 20 Hz
// trajectory is about 3 MB of JSON. Frame bodies need no cap: their
// decoder's memory does not grow with the body.
const maxControlBody = 8 << 20

// Handler returns the daemon's HTTP API: room lifecycle, frame ingest, the
// NDJSON output stream, track export, ghost programming, and /metrics.
// Every endpoint is documented with examples in API.md.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", m.handleHealth)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("POST /v1/rooms", m.handleCreateRoom)
	mux.HandleFunc("GET /v1/rooms", m.handleListRooms)
	mux.HandleFunc("GET /v1/rooms/{id}", m.handleRoomStatus)
	mux.HandleFunc("DELETE /v1/rooms/{id}", m.handleCloseRoom)
	mux.HandleFunc("POST /v1/rooms/{id}/frames", m.handleIngest)
	mux.HandleFunc("GET /v1/rooms/{id}/stream", m.handleStream)
	mux.HandleFunc("GET /v1/rooms/{id}/tracks", m.handleTracks)
	mux.HandleFunc("POST /v1/rooms/{id}/ghosts", m.handleProgramGhost)
	mux.HandleFunc("GET /v1/rooms/{id}/ghosts", m.handleGhosts)
	return mux
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps service errors onto HTTP statuses: the sentinel errors
// carry their status, anything else from request handling is the client's
// fault (400).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNoRoom):
		status = http.StatusNotFound
	case errors.Is(err, ErrRoomExists), errors.Is(err, ErrNotIngest), errors.Is(err, ErrBusy):
		status = http.StatusConflict
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrBacklogged):
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (m *Manager) handleHealth(w http.ResponseWriter, req *http.Request) {
	state := "ok"
	if m.draining.Load() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": state})
}

func (m *Manager) handleCreateRoom(w http.ResponseWriter, req *http.Request) {
	var cfg RoomConfig
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxControlBody)).Decode(&cfg); err != nil {
		writeError(w, err)
		return
	}
	r, err := m.CreateRoom(cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, r.Status())
}

func (m *Manager) handleListRooms(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"rooms": m.Rooms()})
}

func (m *Manager) handleRoomStatus(w http.ResponseWriter, req *http.Request) {
	r, err := m.Room(req.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, r.Status())
}

func (m *Manager) handleCloseRoom(w http.ResponseWriter, req *http.Request) {
	st, err := m.CloseRoom(req.Context(), req.PathValue("id"))
	if errors.Is(err, ErrNoRoom) {
		writeError(w, err)
		return
	}
	if err != nil {
		// Deadline hit while draining: the room keeps draining in the
		// background; the client re-issues DELETE to reap it.
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleIngest accepts one frame or a batch of frames (newline-separated
// or concatenated; the grammar is frameDecoder's) and pushes each through
// the room's bounded queue, honoring its backpressure/shed policy. Every
// frame is decoded straight into a frame from the room's pool, through a
// recycled fixed-size decoder, so the request's memory does not grow with
// the body.
func (m *Manager) handleIngest(w http.ResponseWriter, req *http.Request) {
	r, err := m.Room(req.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if r.Mode() != "ingest" {
		writeError(w, ErrNotIngest)
		return
	}
	dec := getFrameDecoder(req.Body)
	defer putFrameDecoder(dec)
	ingested := 0
	for {
		more, err := dec.more()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error(), "ingested": ingested})
			return
		}
		if !more {
			break
		}
		f := r.pools.Frames.Get(0)
		if err := dec.decode(f); err != nil {
			r.pools.Frames.Put(f)
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error(), "ingested": ingested})
			return
		}
		if err := r.Push(req.Context(), f); err != nil {
			r.pools.Frames.Put(f)
			status := http.StatusServiceUnavailable
			if errors.Is(err, ErrBacklogged) {
				status = http.StatusTooManyRequests
			}
			writeJSON(w, status, map[string]any{"error": err.Error(), "ingested": ingested})
			return
		}
		ingested++
	}
	writeJSON(w, http.StatusOK, map[string]any{"ingested": ingested, "queue_depth": r.QueueDepth()})
}

// handleStream serves the room's NDJSON event stream: one Event per
// processed frame as long as the client keeps up (a slow client drops
// events rather than stalling the room), terminated by one Final event once
// the room finishes.
func (m *Manager) handleStream(w http.ResponseWriter, req *http.Request) {
	r, err := m.Room(req.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	sub := r.Subscribe(64)
	defer r.Unsubscribe(sub)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	flush()
	ctx := req.Context()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				// Room finished: the terminal snapshot is stable, emit it
				// as the stream's last line.
				_ = enc.Encode(r.FinalEvent())
				flush()
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			flush()
		case <-ctx.Done():
			return
		}
	}
}

func (m *Manager) handleTracks(w http.ResponseWriter, req *http.Request) {
	r, err := m.Room(req.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"room": r.ID, "tracks": r.TrackDumps()})
}

func (m *Manager) handleProgramGhost(w http.ResponseWriter, req *http.Request) {
	r, err := m.Room(req.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var spec TrajSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxControlBody)).Decode(&spec); err != nil {
		writeError(w, err)
		return
	}
	if err := spec.check("ghost"); err != nil {
		writeError(w, err)
		return
	}
	st, err := r.ProgramGhost(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (m *Manager) handleGhosts(w http.ResponseWriter, req *http.Request) {
	r, err := m.Room(req.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"room": r.ID, "ghosts": r.GhostStatuses()})
}
