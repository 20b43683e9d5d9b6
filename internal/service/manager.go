package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
)

// shard is one slice of the room table: its own lock, its own map, its own
// counters, so room lookup and per-frame accounting never contend across
// shards no matter how many rooms the daemon hosts.
type shard struct {
	// Lock hierarchy (DESIGN.md "Lock order", enforced by rfvet's
	// lockorder analyzer): shard.mu (20) → Room.mu (40) → Room.qMu (50)
	// → Room.ghostMu (60) → Room.trkMu (70, leaf). In practice the
	// service never nests these — each is released before the next is
	// taken — but the ranks pin the only legal nesting direction if that
	// ever changes.
	//
	//rfvet:lockrank 20
	mu    sync.Mutex
	rooms map[string]*Room

	frames        atomic.Int64 // frames fully processed by this shard's rooms
	dropped       atomic.Int64 // ingest frames shed by full-queue policy
	eventsDropped atomic.Int64 // stream events shed by slow consumers
}

// appendRooms appends the shard's rooms to dst under the shard lock and
// returns it. Callers read the rooms after the lock is released, so no
// per-room work ever runs under sh.mu.
func (sh *shard) appendRooms(dst []*Room) []*Room {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, r := range sh.rooms {
		dst = append(dst, r)
	}
	return dst
}

// Manager hosts many concurrent rooms behind a sharded table. It owns every
// runner goroutine (one per room, joined through wg) and the drain
// protocol; the HTTP layer in this package is a thin translation onto it.
type Manager struct {
	shards []*shard

	// baseCtx parents every room's context; cancel hard-stops all rooms
	// (the drain-deadline fallback). The caller's ctx passed to NewManager
	// must be non-nil — cancel it to hard-stop the whole service.
	baseCtx context.Context
	cancel  context.CancelFunc

	wg       sync.WaitGroup
	draining atomic.Bool
	nextID   atomic.Int64

	//rfvet:lockrank 10
	scrapeMu   sync.Mutex
	lastScrape scrape
}

// NewManager returns a manager with the given shard count (<= 0 means 8)
// whose rooms all descend from ctx. ctx must be non-nil; cancelling it
// hard-stops every room, which is the abandon path — orderly shutdown is
// Drain.
func NewManager(ctx context.Context, shards int) *Manager {
	if shards <= 0 {
		shards = 8
	}
	m := &Manager{shards: make([]*shard, shards)}
	for i := range m.shards {
		m.shards[i] = &shard{rooms: make(map[string]*Room)}
	}
	m.baseCtx, m.cancel = context.WithCancel(ctx)
	return m
}

// shardOf maps a room ID to its shard by FNV-1a.
func (m *Manager) shardOf(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(m.shards)))
}

// CreateRoom validates cfg, assembles the room, registers it, and starts
// its runner. The returned room is already live.
func (m *Manager) CreateRoom(cfg RoomConfig) (*Room, error) {
	if m.draining.Load() {
		return nil, ErrDraining
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("room-%d", m.nextID.Add(1))
	}
	si := m.shardOf(cfg.ID)
	r, err := newRoom(cfg, si, m.shards[si])
	if err != nil {
		return nil, err
	}
	if err := m.start(r); err != nil {
		return nil, err
	}
	return r, nil
}

// start publishes a newly built room on its shard and starts its runner.
func (m *Manager) start(r *Room) error {
	sh := r.sh
	sh.mu.Lock()
	if _, ok := sh.rooms[r.ID]; ok {
		sh.mu.Unlock()
		return ErrRoomExists
	}
	sh.rooms[r.ID] = r
	sh.mu.Unlock()
	// Re-check after publishing: if a drain started between the first check
	// and the insert, its room sweep may have missed this room, so withdraw
	// rather than start a runner the drain will never join.
	if m.draining.Load() {
		sh.mu.Lock()
		delete(sh.rooms, r.ID)
		sh.mu.Unlock()
		return ErrDraining
	}
	rctx, rcancel := context.WithCancel(m.baseCtx)
	r.cancel = rcancel
	m.wg.Add(1)
	//rfvet:allow goroleak -- room runners are long-lived by design; Drain joins them all via m.wg
	go func() {
		defer m.wg.Done()
		defer rcancel()
		r.run(rctx)
	}()
	return nil
}

// Room looks up a live (or finished but not yet deleted) room.
func (m *Manager) Room(id string) (*Room, error) {
	sh := m.shards[m.shardOf(id)]
	sh.mu.Lock()
	r, ok := sh.rooms[id]
	sh.mu.Unlock()
	if !ok {
		return nil, ErrNoRoom
	}
	return r, nil
}

// Rooms snapshots every room's status, sorted by ID.
func (m *Manager) Rooms() []RoomStatus {
	var rooms []*Room
	for _, sh := range m.shards {
		rooms = sh.appendRooms(rooms)
	}
	out := make([]RoomStatus, len(rooms))
	for i, r := range rooms {
		out[i] = r.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CloseRoom drains one room and, once its runner has finished, removes it
// from the table. If ctx expires first the room keeps draining in the
// background and stays listed (state "draining" / "done") until a later
// CloseRoom completes; the returned error is then ctx.Err().
func (m *Manager) CloseRoom(ctx context.Context, id string) (RoomStatus, error) {
	r, err := m.Room(id)
	if err != nil {
		return RoomStatus{}, err
	}
	r.beginDrain()
	select {
	case <-r.done:
	case <-ctx.Done():
		return r.Status(), ctx.Err()
	}
	sh := m.shards[m.shardOf(id)]
	sh.mu.Lock()
	delete(sh.rooms, id)
	sh.mu.Unlock()
	return r.Status(), nil
}

// Drain is the orderly shutdown: refuse new rooms and new frames, let every
// queued and in-flight frame finish, then join all runners. If ctx expires
// first, the stragglers are hard-cancelled (their remaining frames abort
// with ctx.Err()) and Drain still joins every runner before returning
// ctx.Err() — no goroutine outlives the call either way.
func (m *Manager) Drain(ctx context.Context) error {
	m.draining.Store(true)
	var rooms []*Room
	for _, sh := range m.shards {
		rooms = sh.appendRooms(rooms)
	}
	for _, r := range rooms {
		r.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.cancel()
		<-done
		return ctx.Err()
	}
}
