package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/geom"
	"rfprotect/internal/service"
)

// ingestRoom is one ingest room and the record of every frame sent to it.
type ingestRoom struct {
	r    int
	id   string
	url  string
	room *service.Room
	st   *stream
	// due[k] is when frame k's POST was due, acc[k] when the daemon
	// answered it (clock ns); sent counts the frames it accepted.
	due, acc []int64
	sent     int
	// windowFrom is the first frame sent inside the window.
	windowFrom int
	status     service.RoomStatus
	dumps      []service.TrackDump
}

// sender is one load-generating goroutine with its own keep-alive
// connection. It sends frames as the loop's pre-encoded sample JSON,
// patching only the time prefix of each.
type sender struct {
	tr     *http.Transport
	client *http.Client
	rooms  []*ingestRoom
	data   [][]byte // the loop's pre-encoded "data" arrays
	clock  *clock
	// Per-POST scratch, reused: one time prefix per frame of a batch.
	prefix [][]byte
	bufs   net.Buffers
	resp   bytes.Buffer

	postMs, lagMs []float64
	rejected      int
	queueMax      int
	bytes         int64
}

func newSender(rooms []*ingestRoom, data [][]byte, c *clock) *sender {
	tr := &http.Transport{DisableCompression: true, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s := &sender{tr: tr, client: &http.Client{Transport: tr}, rooms: rooms, data: data, clock: c}
	for i := 0; i < bulkBatch; i++ {
		s.prefix = append(s.prefix, make([]byte, 0, 64))
	}
	return s
}

var (
	timeKey   = []byte(`{"time":`)
	dataKey   = []byte(`,"data":`)
	frameTail = []byte("}\n")
)

// patchTime writes frame JSON's prefix, up to the data array, for capture
// time t. The time round-trips exactly through the daemon's JSON decoder.
func patchTime(dst []byte, t float64) []byte {
	dst = append(dst[:0], timeKey...)
	dst = strconv.AppendFloat(dst, t, 'g', -1, 64)
	return append(dst, dataKey...)
}

// encodeData renders a frame's samples as the wire format's "data" array.
func encodeData(f *fmcw.Frame) []byte {
	var b []byte
	b = append(b, '[')
	for k, row := range f.Data {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, v := range row {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendFloat(b, real(v), 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, imag(v), 'g', -1, 64)
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

var queueKey = []byte(`"queue_depth":`)

// post sends room ir's next n frames as one NDJSON body, due at due.
func (s *sender) post(ir *ingestRoom, n int, due int64) error {
	k0 := ir.sent
	s.bufs = s.bufs[:0]
	size := 0
	for j := 0; j < n; j++ {
		s.prefix[j] = patchTime(s.prefix[j], ingestTime(k0+j))
		d := s.data[loopIndex(ir.r, k0+j)]
		s.bufs = append(s.bufs, s.prefix[j], d, frameTail)
		size += len(s.prefix[j]) + len(d) + len(frameTail)
	}
	body := s.bufs
	req, err := http.NewRequest(http.MethodPost, ir.url, &body)
	if err != nil {
		return err
	}
	req.ContentLength = int64(size)
	t0 := s.clock.now()
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	s.resp.Reset()
	_, err = s.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	t1 := s.clock.now()
	s.postMs = append(s.postMs, float64(t1-t0)/1e6)
	s.bytes += int64(size)
	if resp.StatusCode != http.StatusOK {
		s.rejected += n
		return nil
	}
	if q, ok := parseIntAfter(s.resp.Bytes(), queueKey); ok && q > s.queueMax {
		s.queueMax = q
	}
	for j := 0; j < n; j++ {
		ir.due[k0+j] = due
		ir.acc[k0+j] = t1
	}
	ir.sent += n
	return nil
}

// parseIntAfter reads the unsigned integer following key in b.
func parseIntAfter(b, key []byte) (int, bool) {
	i := bytes.Index(b, key)
	if i < 0 {
		return 0, false
	}
	n, digits := 0, 0
	for _, c := range b[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	return n, digits > 0
}

// runLive is one ingest-live sender: an open loop at liveRate/senders
// frames/s, alternating its rooms, until the deadline. A POST that is late
// is sent at once; the lag is recorded.
func (s *sender) runLive(start, deadline int64) error {
	interval := float64(senders) / liveRate * 1e9
	for j := 0; ; j++ {
		due := start + int64(float64(j)*interval)
		if due >= deadline {
			return nil
		}
		if wait := due - s.clock.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		s.lagMs = append(s.lagMs, float64(s.clock.now()-due)/1e6)
		ir := s.rooms[j%len(s.rooms)]
		if ir.sent >= len(ir.due) {
			return fmt.Errorf("room %s: frame log full", ir.id)
		}
		if err := s.post(ir, 1, due); err != nil {
			return err
		}
	}
}

// runBulk is one ingest-bulk sender: a closed loop posting batches
// bulkBatch-frame batches back to back, alternating its rooms.
func (s *sender) runBulk(batches int) error {
	for j := 0; j < batches; j++ {
		ir := s.rooms[j%len(s.rooms)]
		if ir.sent+bulkBatch > len(ir.due) {
			return fmt.Errorf("room %s: frame log full", ir.id)
		}
		if err := s.post(ir, bulkBatch, s.clock.now()); err != nil {
			return err
		}
	}
	return nil
}

// runIngest drives the ingest rooms over HTTP, as an open loop for seconds
// (live) or as a closed loop through bulkRate·seconds frames (bulk).
func runIngest(b *bench, seconds float64, live bool) (*outcome, error) {
	o := &outcome{}
	loop, err := synthLoop(b.in.loop)
	if err != nil {
		return nil, err
	}
	o.loop = loop
	data := make([][]byte, len(loop.frames))
	for i, f := range loop.frames {
		data[i] = encodeData(f)
	}
	base := liveHeap()
	// perSender is how many frames each sender sends in the window.
	perSender := int(math.Ceil(seconds * liveRate / senders))
	batches := max(1, int(math.Round(seconds*bulkRate/(senders*bulkBatch))))
	if !live {
		perSender = batches * bulkBatch
	}
	capacity := perSender/2 + 2*bulkBatch

	var d *daemon
	var rooms []*ingestRoom
	var snd []*sender
	for i := 0; i < b.setups; i++ {
		t0 := time.Now()
		if d, rooms, snd, err = setupIngest(b, data, capacity); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		if i < b.setups-1 {
			if err := closeIngest(d, rooms, snd); err != nil {
				return nil, err
			}
		}
	}
	for _, ir := range rooms {
		ir.windowFrom = ir.sent
	}
	for _, s := range snd {
		s.postMs, s.bytes, s.queueMax = s.postMs[:0], 0, 0
	}

	p := d.progress
	w := openWindow(p, evenBounds(p.count(), int64(senders*perSender), sliceCount(seconds)))
	start := b.clock.now()
	deadline := start + int64(seconds2dur(seconds))
	errs := make([]error, len(snd))
	var wg sync.WaitGroup
	for i, s := range snd {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			if live {
				errs[i] = s.runLive(start, deadline)
			} else {
				errs[i] = s.runBulk(batches)
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The window ends when the last accepted frame's event is read.
	for _, ir := range rooms {
		if err := waitEvents(ir, 30*time.Second); err != nil {
			o.fail("%v", err)
		}
	}
	if err := w.wait(time.Second); err != nil {
		o.fail("%v", err)
	}
	w.close(o)
	o.heapLive = liveHeap() - base
	if o.eventsDropped, err = d.eventsDropped(); err != nil {
		return nil, err
	}
	if err := closeIngest(d, rooms, snd); err != nil {
		return nil, err
	}
	return finishIngest(o, rooms, snd, live)
}

// setupIngest starts a daemon with the ingest rooms, subscribes to each
// room's events, and sends each room its first frame, returning once every
// first event has been read.
func setupIngest(b *bench, data [][]byte, capacity int) (*daemon, []*ingestRoom, []*sender, error) {
	d, err := startDaemon(b.clock)
	if err != nil {
		return nil, nil, nil, err
	}
	rooms := make([]*ingestRoom, ingestRooms)
	for r := range rooms {
		cfg := ingestRoomConfig(r)
		room, err := d.m.CreateRoom(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		st, err := d.openStream(cfg.ID, capacity)
		if err != nil {
			return nil, nil, nil, err
		}
		rooms[r] = &ingestRoom{
			r: r, id: cfg.ID, url: d.base + "/v1/rooms/" + cfg.ID + "/frames", room: room, st: st,
			due: make([]int64, capacity), acc: make([]int64, capacity),
		}
	}
	snd := make([]*sender, senders)
	for i := range snd {
		var mine []*ingestRoom
		for r := i; r < ingestRooms; r += senders {
			mine = append(mine, rooms[r])
		}
		snd[i] = newSender(mine, data, b.clock)
	}
	for _, s := range snd {
		for _, ir := range s.rooms {
			if err := s.post(ir, 1, b.clock.now()); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	for _, ir := range rooms {
		if err := ir.st.waitFirst(time.Minute); err != nil {
			return nil, nil, nil, err
		}
	}
	return d, rooms, snd, nil
}

// waitEvents waits until the room's event for every accepted frame has
// been read.
func waitEvents(ir *ingestRoom, timeout time.Duration) error {
	end := time.Now().Add(timeout)
	for ir.st.progress.Load() < int64(ir.sent-1) {
		if time.Now().After(end) {
			return fmt.Errorf("room %s: events stopped at frame %d of %d", ir.id, ir.st.progress.Load(), ir.sent)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// closeIngest closes every room, waits for its stream to end, exports its
// tracks, and shuts the daemon and the senders' connections down.
func closeIngest(d *daemon, rooms []*ingestRoom, snd []*sender) error {
	for _, ir := range rooms {
		st, err := d.m.CloseRoom(context.Background(), ir.id)
		if err != nil {
			return err
		}
		<-ir.st.done
		ir.status = st
		ir.dumps = ir.room.TrackDumps()
	}
	for _, s := range snd {
		s.tr.CloseIdleConnections()
	}
	return d.close()
}

// finishIngest checks every room's events against the frames it accepted
// and derives the latencies.
func finishIngest(o *outcome, rooms []*ingestRoom, snd []*sender, live bool) (*outcome, error) {
	const lateAfter = 50 * time.Millisecond // one frame at 20 frames/s
	o.ingest = rooms
	for _, s := range snd {
		o.postMs = append(o.postMs, s.postMs...)
		o.sendLagMs = append(o.sendLagMs, s.lagMs...)
		o.rejected += s.rejected
		o.failed += s.rejected
		o.attempted += s.rejected
		o.ingestBytes += s.bytes
		if s.queueMax > o.queueMax {
			o.queueMax = s.queueMax
		}
	}
	for _, ir := range rooms {
		st, n := ir.st, ir.sent
		o.eventBytes += st.bytes
		o.eventLines += int64(st.events)
		if ir.status.State != "done" || ir.status.Frames != n {
			o.fail("room %s ended %q with %d of %d accepted frames (%s)", ir.id, ir.status.State, ir.status.Frames, n, ir.status.Error)
		}
		if st.events != n || st.gaps != 0 || st.unordered || !st.final || st.finalAt != n-1 || st.err != nil {
			o.fail("room %s: %d events for %d accepted frames (gaps %d, unordered %v, final %v at %d, err %v; the daemon shed %d events)",
				ir.id, st.events, n, st.gaps, st.unordered, st.final, st.finalAt, st.err, o.eventsDropped)
		}
		for k := ir.windowFrom; k < n; k++ {
			o.attempted++
			read := st.read[k]
			if read == 0 {
				o.failed++
				o.late++
				continue
			}
			o.frames++
			o.latencyMs = append(o.latencyMs, float64(read-ir.due[k])/1e6)
			o.latencyAt = append(o.latencyAt, ir.due[k])
			o.acceptMs = append(o.acceptMs, float64(read-ir.acc[k])/1e6)
			if live && time.Duration(read-ir.due[k]) > lateAfter {
				o.late++
			}
		}
		o.countHits(ir.dumps, ingestTruth(o.loop.truth, ir.r, n), n)
	}
	return o, nil
}

// ingestTruth maps the loop's truth onto ingest room r's frames.
func ingestTruth(loop truth, r, n int) truth {
	var tr truth
	for _, h := range loop.humans {
		pos := make([]geom.Point, n)
		for k := range pos {
			pos[k] = h[loopIndex(r, k)]
		}
		tr.humans = append(tr.humans, pos)
	}
	for k := 0; k < n; k++ {
		i := loopIndex(r, k)
		if i >= len(loop.ghost) {
			break
		}
		tr.ghost = append(tr.ghost, loop.ghost[i])
	}
	return tr
}
