package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfprotect/internal/service"
)

// daemon is one rfprotectd inside the harness: a service.Manager behind
// its real HTTP handler on a loopback listener, plus the receive-only event
// streams the harness holds open on it.
type daemon struct {
	m      *service.Manager
	srv    *http.Server
	base   string
	served chan error
	// streams carries every /stream connection; each stream owns one.
	streams *http.Transport
	readers sync.WaitGroup
	clock   *clock
	// progress counts the frames whose events the streams have read.
	progress *progress
}

// shards is rfprotectd's default room-table shard count.
const shards = 8

func startDaemon(c *clock) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := service.NewManager(context.Background(), shards)
	d := &daemon{
		m:        m,
		srv:      &http.Server{Handler: m.Handler()},
		base:     "http://" + ln.Addr().String(),
		served:   make(chan error, 1),
		streams:  &http.Transport{DisableCompression: true, DisableKeepAlives: true},
		clock:    c,
		progress: newProgress(c),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close drains every room, stops the server and waits for every stream
// reader and the serving goroutine to end.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.m.Drain(ctx)
	d.readers.Wait()
	if serr := d.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.streams.CloseIdleConnections()
	return err
}

// eventsDropped scrapes /metrics for the events the daemon shed because a
// stream consumer fell behind.
func (d *daemon) eventsDropped() (int, error) {
	resp, err := (&http.Client{Transport: d.streams}).Get(d.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	total := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		const name = "rfprotect_events_dropped_total{"
		if len(line) > len(name) && line[:len(name)] == name {
			i := strings.LastIndexByte(line, ' ')
			n, err := strconv.Atoi(line[i+1:])
			if err != nil {
				return 0, fmt.Errorf("metrics line %q: %w", line, err)
			}
			total += n
		}
	}
	return total, sc.Err()
}

// clock reads monotonic time as nanoseconds since the run began.
type clock struct{ epoch time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// stream is one receive-only /stream connection. For each event line it
// records when the line was read, by the event's frame index; it parses
// nothing else from the line, so the harness's reading cost does not grow
// with the events.
type stream struct {
	room string
	// read[k] is when frame k's event was read, 0 if it never was.
	read []int64
	// first is closed once the first event has been read.
	first    chan struct{}
	gotFirst bool
	events   int
	bytes    int64
	last     int // frame of the last event, -1 before the first
	// progress is last, readable while the stream runs.
	progress  atomic.Int64
	gaps      int // frames skipped between consecutive events
	unordered bool
	final     bool
	finalAt   int // the final line's frame
	err       error
	done      chan struct{}
	// counted counts, daemon-wide, the frames whose events were read.
	counted *progress
}

func newStream(room string, frames int, counted *progress) *stream {
	s := &stream{room: room, read: make([]int64, frames), first: make(chan struct{}), finalAt: -1, done: make(chan struct{}), counted: counted}
	s.progress.Store(-1)
	return s
}

// openStream subscribes to a room's events; the subscription is live when
// it returns.
func (d *daemon) openStream(room string, frames int) (*stream, error) {
	resp, err := (&http.Client{Transport: d.streams}).Get(d.base + "/v1/rooms/" + room + "/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("stream %s: status %d", room, resp.StatusCode)
	}
	s := newStream(room, frames, d.progress)
	d.readers.Add(1)
	go func() {
		defer d.readers.Done()
		defer close(s.done)
		defer resp.Body.Close()
		s.err = s.consume(resp.Body, d.clock)
	}()
	return s, nil
}

var finalSuffix = []byte(`"final":true}` + "\n")

// consume reads event lines until the daemon closes the stream.
func (s *stream) consume(body io.Reader, c *clock) error {
	br := bufio.NewReaderSize(body, 64<<10)
	atStart := true
	frame, at := -1, int64(0)
	// tail holds the last bytes of the current line, which a line longer
	// than the buffer can split across chunks.
	tail := make([]byte, 0, 2*len(finalSuffix))
	for {
		chunk, err := br.ReadSlice('\n')
		s.bytes += int64(len(chunk))
		if atStart && len(chunk) > 0 {
			at = c.now()
			k, ok := parseFrame(chunk)
			if !ok {
				return fmt.Errorf("stream %s: no frame index in %.80q", s.room, chunk)
			}
			frame = k
			tail = tail[:0]
		}
		tail = keepTail(tail, chunk, len(finalSuffix))
		switch err {
		case nil:
			atStart = true
			if bytes.HasSuffix(tail, finalSuffix) {
				s.final, s.finalAt = true, frame
			} else {
				s.record(frame, at)
			}
		case bufio.ErrBufferFull:
			atStart = false
		case io.EOF:
			return nil
		default:
			return err
		}
	}
}

// keepTail appends b to t and keeps the last n bytes, in place: t has room
// for 2n bytes.
func keepTail(t, b []byte, n int) []byte {
	t = append(t, b[max(0, len(b)-n):]...)
	if over := len(t) - n; over > 0 {
		t = t[:copy(t, t[over:])]
	}
	return t
}

// record notes that frame k's event was read at t.
func (s *stream) record(k int, t int64) {
	s.events++
	last := int(s.progress.Load())
	if k <= last {
		s.unordered = true
		return
	}
	// The room has done frames 0..k: a stream opened after a synthetic room
	// started misses its first events, but not their frames.
	s.counted.add(int64(k - last))
	if last >= 0 {
		s.gaps += k - last - 1
	} else {
		close(s.first)
	}
	s.progress.Store(int64(k))
	if k < len(s.read) {
		s.read[k] = t
	}
}

var frameKey = []byte(`"frame":`)

// parseFrame reads the event's frame index from the start of its line,
// where it follows the room ID.
func parseFrame(line []byte) (int, bool) {
	if len(line) > 256 {
		line = line[:256]
	}
	return parseIntAfter(line, frameKey)
}

// waitFirst waits until the stream has read its first event.
func (s *stream) waitFirst(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-s.first:
		return nil
	case <-s.done:
		return fmt.Errorf("stream %s ended before its first event: %v", s.room, s.err)
	case <-t.C:
		return fmt.Errorf("stream %s: no event within %s", s.room, timeout)
	}
}
