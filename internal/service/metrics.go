package service

import (
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// scrape is one /metrics observation point: the rate metrics are deltas
// between successive scrapes, so the first scrape reports 0 rates.
type scrape struct {
	when    time.Time
	frames  int64
	mallocs uint64
}

// handleMetrics serves the daemon's metrics in Prometheus text exposition
// format (hand-rolled — the module stays dependency-free): per shard, the
// live room count, summed ingest queue depth, processed-frame and dropped
// counters; globally, frames/sec and heap allocations per frame since the
// previous scrape.
//
//rfvet:allow wallclock -- frames/sec is a rate over real time between scrapes; determinism is irrelevant to telemetry
func (m *Manager) handleMetrics(w http.ResponseWriter, req *http.Request) {
	var totalFrames int64
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP rfprotect_rooms Live rooms per shard.\n# TYPE rfprotect_rooms gauge\n")
	type shardRow struct {
		rooms, depth, suspects int
	}
	rows := make([]shardRow, len(m.shards))
	var rooms []*Room
	for i, sh := range m.shards {
		// Snapshot the shard's rooms and read them after unlocking:
		// scoring a room waits on its tracker lock, and holding sh.mu
		// meanwhile would stall every lookup, create and close on the
		// shard.
		rooms = sh.appendRooms(rooms[:0])
		rows[i].rooms = len(rooms)
		for _, r := range rooms {
			rows[i].depth += r.QueueDepth()
			rows[i].suspects += r.SuspectTracks()
		}
	}
	for i, row := range rows {
		fmt.Fprintf(w, "rfprotect_rooms{shard=\"%d\"} %d\n", i, row.rooms)
	}
	fmt.Fprintf(w, "# HELP rfprotect_queue_depth Buffered ingest frames per shard.\n# TYPE rfprotect_queue_depth gauge\n")
	for i, row := range rows {
		fmt.Fprintf(w, "rfprotect_queue_depth{shard=\"%d\"} %d\n", i, row.depth)
	}
	fmt.Fprintf(w, "# HELP rfprotect_suspect_tracks Tracks flagged by the spoof-detection suite, per shard.\n# TYPE rfprotect_suspect_tracks gauge\n")
	for i, row := range rows {
		fmt.Fprintf(w, "rfprotect_suspect_tracks{shard=\"%d\"} %d\n", i, row.suspects)
	}
	fmt.Fprintf(w, "# HELP rfprotect_frames_total Frames fully processed per shard.\n# TYPE rfprotect_frames_total counter\n")
	for i, sh := range m.shards {
		n := sh.frames.Load()
		totalFrames += n
		fmt.Fprintf(w, "rfprotect_frames_total{shard=\"%d\"} %d\n", i, n)
	}
	fmt.Fprintf(w, "# HELP rfprotect_frames_dropped_total Ingest frames shed by the full-queue policy, per shard.\n# TYPE rfprotect_frames_dropped_total counter\n")
	for i, sh := range m.shards {
		fmt.Fprintf(w, "rfprotect_frames_dropped_total{shard=\"%d\"} %d\n", i, sh.dropped.Load())
	}
	fmt.Fprintf(w, "# HELP rfprotect_events_dropped_total Stream events shed by slow consumers, per shard.\n# TYPE rfprotect_events_dropped_total counter\n")
	for i, sh := range m.shards {
		fmt.Fprintf(w, "rfprotect_events_dropped_total{shard=\"%d\"} %d\n", i, sh.eventsDropped.Load())
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Now()
	m.scrapeMu.Lock()
	prev := m.lastScrape
	m.lastScrape = scrape{when: now, frames: totalFrames, mallocs: ms.Mallocs}
	m.scrapeMu.Unlock()

	fps, apf := 0.0, 0.0
	if !prev.when.IsZero() {
		if dt := now.Sub(prev.when).Seconds(); dt > 0 {
			fps = float64(totalFrames-prev.frames) / dt
		}
		if df := totalFrames - prev.frames; df > 0 {
			apf = float64(ms.Mallocs-prev.mallocs) / float64(df)
		}
	}
	fmt.Fprintf(w, "# HELP rfprotect_frames_per_second Frames processed per second since the previous scrape.\n# TYPE rfprotect_frames_per_second gauge\n")
	fmt.Fprintf(w, "rfprotect_frames_per_second %g\n", fps)
	fmt.Fprintf(w, "# HELP rfprotect_allocs_per_frame Heap allocations per processed frame since the previous scrape (whole process, all rooms).\n# TYPE rfprotect_allocs_per_frame gauge\n")
	fmt.Fprintf(w, "rfprotect_allocs_per_frame %g\n", apf)
	fmt.Fprintf(w, "# HELP rfprotect_goroutines Live goroutines.\n# TYPE rfprotect_goroutines gauge\n")
	fmt.Fprintf(w, "rfprotect_goroutines %d\n", runtime.NumGoroutine())
}
