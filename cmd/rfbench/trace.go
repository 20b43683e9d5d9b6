package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/pipeline"
	"rfprotect/internal/radar"
)

// layer is one span kind of the traced run, named after its module.
type layer uint8

const (
	lNext layer = iota
	lSubtract
	lRangeAngle
	lPeak
	lDoppler
	lTrack
	lScore
	lSnapshot
	lFrame // one frame through the whole chain
	nLayers
)

var layerNames = [nLayers]string{
	"scene.next", "fmcw.subtract", "radar.range_angle", "radar.peak_extract",
	"radar.doppler", "radar.track", "detect.score", "service.snapshot", "pipeline.frame",
}

// span is one timed call. Times are nanoseconds since the recorder's epoch.
type span struct {
	start, end int64
	frame      int32
	room       uint16
	layer      layer
}

// recorder keeps the traced run's spans in memory preallocated for the
// whole run, so recording allocates nothing. A nil recorder records nothing
// and reads no clock, which is how the untraced mirror runs.
type recorder struct {
	epoch time.Time
	spans []span
	// room is the mirror being recorded; roomFrames[r] its frame count.
	room       int
	roomFrames []int
	// The current frame span, closed when the next one opens or the source
	// ends.
	open      bool
	openStart int64
	openFrame int
	// Counts taken beside the spans.
	dets, active int
}

// spansPerFrame bounds the spans one frame records: one per layer.
const spansPerFrame = int(nLayers)

func newRecorder(frames int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, frames*spansPerFrame)}
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// add records a span of layer l for frame from start to now and returns
// now, the start of whatever the caller times next.
func (r *recorder) add(l layer, frame int, start int64) int64 {
	if r == nil {
		return 0
	}
	end := r.now()
	r.spans = append(r.spans, span{start: start, end: end, frame: int32(frame), room: uint16(r.room), layer: l})
	return end
}

// beginRoom starts recording mirror room.
func (r *recorder) beginRoom(room int) {
	r.room = room
	r.roomFrames = append(r.roomFrames, 0)
}

// closeFrame ends the open frame span at t.
func (r *recorder) closeFrame(t int64) {
	if r.open {
		r.spans = append(r.spans, span{start: r.openStart, end: t, frame: int32(r.openFrame), room: uint16(r.room), layer: lFrame})
		r.open = false
	}
}

func (r *recorder) countActive(*radar.Track) { r.active++ }

// wrap returns the source and stages with every Next and Process call
// recorded as a span of the stage's layer.
func (r *recorder) wrap(src pipeline.Source, stages []pipeline.Stage) (pipeline.Source, []pipeline.Stage, error) {
	out := make([]pipeline.Stage, len(stages))
	for i, st := range stages {
		l, ok := stageLayers[st.Name()]
		if !ok {
			return nil, nil, fmt.Errorf("rfbench: no layer for pipeline stage %q", st.Name())
		}
		out[i] = &tracedStage{st: st, rec: r, layer: l}
	}
	return &tracedSource{src: src, rec: r}, out, nil
}

// tracedSource times Source.Next as scene.next and brackets each frame: a
// frame's span runs from its Next call to the next Next call, so it covers
// the pipeline's own per-frame work (item checkout, buffer recycling) too.
type tracedSource struct {
	src   pipeline.Source
	rec   *recorder
	frame int
}

func (s *tracedSource) Next(ctx context.Context) (*fmcw.Frame, error) {
	r := s.rec
	t0 := r.now()
	r.closeFrame(t0)
	f, err := s.src.Next(ctx)
	if err != nil {
		return f, err
	}
	r.add(lNext, s.frame, t0)
	r.open, r.openStart, r.openFrame = true, t0, s.frame
	s.frame++
	r.roomFrames[r.room] = s.frame
	return f, nil
}

// tracedStage times one stage's Process calls.
type tracedStage struct {
	st    pipeline.Stage
	rec   *recorder
	layer layer
}

func (s *tracedStage) Name() string { return s.st.Name() }

func (s *tracedStage) Process(ctx context.Context, it *pipeline.Item) error {
	t0 := s.rec.now()
	err := s.st.Process(ctx, it)
	s.rec.add(s.layer, it.Index, t0)
	return err
}

// layerTimes is the traced run reduced to per-frame times: us[l][g] is
// layer l's time in frame g (µs, 0 where the layer did no work), with the
// frames of every mirrored room concatenated in run order, and age[g] the
// frame's position in its room's life, in [0, 1).
type layerTimes struct {
	us   [nLayers][]float64
	self []float64 // frame time not covered by any layer span
	age  []float64
}

func (r *recorder) times() layerTimes {
	offset := make([]int, len(r.roomFrames)+1)
	for i, n := range r.roomFrames {
		offset[i+1] = offset[i] + n
	}
	total := offset[len(r.roomFrames)]
	var lt layerTimes
	for l := range lt.us {
		lt.us[l] = make([]float64, total)
	}
	for _, s := range r.spans {
		g := offset[s.room] + int(s.frame)
		lt.us[s.layer][g] += float64(s.end-s.start) / 1e3
	}
	lt.self = make([]float64, total)
	lt.age = make([]float64, total)
	for room, n := range r.roomFrames {
		for f := 0; f < n; f++ {
			g := offset[room] + f
			lt.age[g] = float64(f) / float64(n)
			self := lt.us[lFrame][g]
			for l := lNext; l < lFrame; l++ {
				self -= lt.us[l][g]
			}
			lt.self[g] = self
		}
	}
	return lt
}

// sixths is the mean of v over each sixth of the rooms' lives.
func sixths(v, age []float64) [6]float64 {
	var sum [6]float64
	var n [6]int
	for g, x := range v {
		i := int(age[g] * 6)
		sum[i] += x
		n[i]++
	}
	for i := range sum {
		if n[i] > 0 {
			sum[i] /= float64(n[i])
		}
	}
	return sum
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, one thread
// per mirrored room, the frame number in args.
func (r *recorder) writeChromeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	writeTraceEvents(bw, r.spans)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTraceEvents(bw *bufio.Writer, spans []span) {
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	var b []byte
	for i, s := range spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ',', '\n')
		}
		b = append(b, `{"name":"`...)
		b = append(b, layerNames[s.layer]...)
		b = append(b, `","ph":"X","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(s.room), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendFloat(b, float64(s.start)/1e3, 'f', 3, 64)
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, float64(s.end-s.start)/1e3, 'f', 3, 64)
		b = append(b, `,"args":{"frame":`...)
		b = strconv.AppendInt(b, int64(s.frame), 10)
		b = append(b, "}}"...)
		bw.Write(b)
	}
	bw.WriteString("]}\n")
}
