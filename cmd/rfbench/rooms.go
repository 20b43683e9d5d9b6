package main

import (
	"context"
	"time"

	"rfprotect/internal/service"
)

// synthRoom is one synthetic room's life in the daemon as the harness saw
// it.
type synthRoom struct {
	cfg  service.RoomConfig
	room *service.Room
	st   *stream
	// framesAtOpen is how many frames the room had done when the window
	// opened (0 for rooms created inside it).
	framesAtOpen int
	// cut marks a room the run closed before it reached its last frame.
	cut    bool
	status service.RoomStatus
	dumps  []service.TrackDump
}

// openSynth creates a synthetic room and subscribes to its events.
func openSynth(d *daemon, cfg service.RoomConfig) (*synthRoom, error) {
	r, err := d.m.CreateRoom(cfg)
	if err != nil {
		return nil, err
	}
	st, err := d.openStream(cfg.ID, cfg.Frames)
	if err != nil {
		return nil, err
	}
	return &synthRoom{cfg: cfg, room: r, st: st}, nil
}

// close closes the room, waits for its stream to end, and exports its
// tracks. cut says the run is ending the room early: it stops at its next
// frame boundary. The caller drops sr.room once it no longer needs the
// closed room's state.
func (sr *synthRoom) close(d *daemon, cut bool) error {
	st, err := d.m.CloseRoom(context.Background(), sr.cfg.ID)
	if err != nil {
		return err
	}
	<-sr.st.done
	sr.status = st
	sr.cut = cut
	sr.dumps = sr.room.TrackDumps()
	return nil
}

// setupSynth starts a daemon and opens the given rooms, b.setups times,
// timing each set-up until every room has emitted an event; all but the
// last daemon are closed again.
func setupSynth(b *bench, o *outcome, cfgs []service.RoomConfig) (*daemon, []*synthRoom, error) {
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := startDaemon(b.clock)
		if err != nil {
			return nil, nil, err
		}
		rooms := make([]*synthRoom, len(cfgs))
		for j, cfg := range cfgs {
			if rooms[j], err = openSynth(d, cfg); err != nil {
				return nil, nil, err
			}
		}
		for _, sr := range rooms {
			if err := sr.st.waitFirst(time.Minute); err != nil {
				return nil, nil, err
			}
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		if i == b.setups-1 {
			return d, rooms, nil
		}
		if err := d.close(); err != nil {
			return nil, nil, err
		}
	}
}

// runRoomLong drives one long-lived home room, unpaced, through
// roomLongRate·seconds frames.
func runRoomLong(b *bench, seconds float64) (*outcome, error) {
	o := &outcome{}
	base := liveHeap()
	d, rooms, err := setupSynth(b, o, []service.RoomConfig{b.in.roomLong})
	if err != nil {
		return nil, err
	}
	sr := rooms[0]
	p := d.progress
	w := openWindow(p, evenBounds(p.count(), int64(roomLongRate*seconds), sliceCount(seconds)))
	sr.framesAtOpen = int(p.count())
	if err := w.wait(windowTimeout); err != nil {
		return nil, err
	}
	if err := sr.close(d, true); err != nil {
		return nil, err
	}
	w.close(o)
	// The stopped room's state is still referenced, with no frame in
	// flight that would make the heap depend on timing.
	o.heapLive = liveHeap() - base
	sr.room = nil
	return finishSynth(o, d, rooms)
}

// runRoomsShort runs short office rooms in waves of two: both rooms of a
// wave open together, and the next wave opens once both have finished. A
// run is a fixed number of waves, one slice each, and ends with the last
// wave's two finished full-length rooms still open.
func runRoomsShort(b *bench, seconds float64) (*outcome, error) {
	o := &outcome{}
	cfgs := b.in.roomsShort
	waves := roomsShortWaves(seconds)
	base := liveHeap()
	d, wave, err := setupSynth(b, o, cfgs[:2])
	if err != nil {
		return nil, err
	}
	w := openWindow(d.progress, evenBounds(0, int64(waves*2*roomsShortFrames), waves))
	for _, sr := range wave {
		sr.framesAtOpen = sr.room.Status().Frames
	}
	rooms := wave
	for next := 2; ; next += 2 {
		for _, sr := range wave {
			<-sr.st.done
		}
		if next == 2*waves {
			break
		}
		for i, sr := range wave {
			if err := sr.close(d, false); err != nil {
				return nil, err
			}
			sr.room = nil // let the daemon free the closed room
			if wave[i], err = openSynth(d, cfgs[next+i]); err != nil {
				return nil, err
			}
		}
		rooms = append(rooms, wave...)
	}
	w.close(o)
	o.heapLive = liveHeap() - base
	for _, sr := range wave {
		if err := sr.close(d, false); err != nil {
			return nil, err
		}
	}
	return finishSynth(o, d, rooms)
}

// finishSynth closes the daemon and checks and scores every room.
func finishSynth(o *outcome, d *daemon, rooms []*synthRoom) (*outcome, error) {
	dropped, err := d.eventsDropped()
	if err != nil {
		return nil, err
	}
	o.eventsDropped = dropped
	if err := d.close(); err != nil {
		return nil, err
	}
	o.synth = rooms
	for _, sr := range rooms {
		st, n := sr.st, sr.status.Frames
		o.frames += n - sr.framesAtOpen
		o.attempted += n - sr.framesAtOpen
		o.eventBytes += st.bytes
		o.eventLines += int64(st.events)
		if sr.status.State != "done" {
			o.failed += n - sr.framesAtOpen
			o.fail("room %s ended %q (%s)", sr.cfg.ID, sr.status.State, sr.status.Error)
		}
		if n < 1 || n > sr.cfg.Frames || (!sr.cut && n != sr.cfg.Frames) {
			o.fail("room %s processed %d of its %d frames", sr.cfg.ID, n, sr.cfg.Frames)
		}
		if !st.final || st.finalAt != n-1 || st.unordered || st.err != nil {
			o.fail("room %s: stream ended badly (final %v at frame %d of %d, unordered %v, err %v)",
				sr.cfg.ID, st.final, st.finalAt, n, st.unordered, st.err)
		}
		o.appendServiceTimes(st.read[sr.framesAtOpen:min(n, len(st.read))])
		tr, err := roomTruth(sr.cfg, n)
		if err != nil {
			return nil, err
		}
		o.countHits(sr.dumps, tr, n)
	}
	return o, nil
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// serviceBlock is the number of events a synthetic room's per-frame service
// time is averaged over: the stream delivers events in bursts of a few, so
// single gaps between reads say more about the socket than the room.
const serviceBlock = 16

// appendServiceTimes records a synthetic room's per-frame service times, in
// ms: the time between the events of successive serviceBlock-frame blocks
// of the room, per frame, each at the time its block ended. Blocks with an
// unread event at either end are skipped.
func (o *outcome) appendServiceTimes(read []int64) {
	for k := 0; k+serviceBlock < len(read); k += serviceBlock {
		if read[k] != 0 && read[k+serviceBlock] != 0 {
			o.latencyMs = append(o.latencyMs, float64(read[k+serviceBlock]-read[k])/1e6/serviceBlock)
			o.latencyAt = append(o.latencyAt, read[k+serviceBlock])
		}
	}
}
