package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/scene"
)

// oracleFrame and oracleFill are the ingest decode path this package used
// before frameDecoder: encoding/json into [][][2]float64, then a shape check
// and a copy into the room's frame. They stay here as the differential
// oracle the decoder is held to.
type oracleFrame struct {
	Time float64        `json:"time"`
	Data [][][2]float64 `json:"data"`
}

func (fs *oracleFrame) oracleFill(dst *fmcw.Frame) error {
	if len(fs.Data) != len(dst.Data) {
		return fmt.Errorf("service: frame has %d antennas, room expects %d", len(fs.Data), len(dst.Data))
	}
	for k, row := range fs.Data {
		if len(row) != len(dst.Data[k]) {
			return fmt.Errorf("service: antenna %d has %d samples, room expects %d", k, len(row), len(dst.Data[k]))
		}
	}
	dst.Time = fs.Time
	for k, row := range fs.Data {
		for i, s := range row {
			dst.Data[k][i] = complex(s[0], s[1])
		}
	}
	return nil
}

// shapedFrame returns a zeroed frame of ants antennas × n samples; the
// decoders read only the shape of Data.
func shapedFrame(ants, n int) *fmcw.Frame {
	f := &fmcw.Frame{Data: make([][]complex128, ants)}
	for k := range f.Data {
		f.Data[k] = make([]complex128, n)
	}
	return f
}

// decodeOracle decodes body the old way, returning the frames accepted
// before the first error.
func decodeOracle(body []byte, ants, n int) ([]*fmcw.Frame, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var out []*fmcw.Frame
	for {
		var spec oracleFrame
		if err := dec.Decode(&spec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		f := shapedFrame(ants, n)
		if err := spec.oracleFill(f); err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// decodeNew decodes body through frameDecoder, exactly as handleIngest
// drives it, returning the frames accepted before the first error.
func decodeNew(r io.Reader, ants, n int) ([]*fmcw.Frame, error) {
	d := getFrameDecoder(r)
	defer putFrameDecoder(d)
	var out []*fmcw.Frame
	for {
		more, err := d.more()
		if err != nil || !more {
			return out, err
		}
		f := shapedFrame(ants, n)
		if err := d.decode(f); err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// sameFrame compares time and samples bit for bit.
func sameFrame(a, b *fmcw.Frame) bool {
	if math.Float64bits(a.Time) != math.Float64bits(b.Time) || len(a.Data) != len(b.Data) {
		return false
	}
	for k := range a.Data {
		if len(a.Data[k]) != len(b.Data[k]) {
			return false
		}
		for i, v := range a.Data[k] {
			w := b.Data[k][i]
			if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
				return false
			}
		}
	}
	return true
}

// frameStyle selects how encodeFrame renders a frame: key order, number
// format, and whitespace. Every style is canonical input the decoder must
// accept.
type frameStyle struct {
	dataFirst bool
	fmt       byte // 'g', 'e', 'G' or 'E'
	spaced    bool // JSON whitespace between every token
}

// encodeFrame appends f in the ingest wire format.
func encodeFrame(b []byte, f *fmcw.Frame, st frameStyle) []byte {
	sp := func(b []byte) []byte {
		if st.spaced {
			b = append(b, " \t\r\n"...)
		}
		return b
	}
	num := func(b []byte, v float64) []byte {
		return strconv.AppendFloat(sp(b), v, st.fmt, -1, 64)
	}
	timeMember := func(b []byte) []byte {
		b = append(sp(b), `"time"`...)
		return num(append(sp(b), ':'), f.Time)
	}
	dataMember := func(b []byte) []byte {
		b = append(append(sp(append(sp(b), `"data"`...)), ':'), '[')
		for k, row := range f.Data {
			if k > 0 {
				b = append(sp(b), ',')
			}
			b = append(sp(b), '[')
			for i, v := range row {
				if i > 0 {
					b = append(sp(b), ',')
				}
				b = append(sp(b), '[')
				b = num(b, real(v))
				b = append(sp(b), ',')
				b = num(b, imag(v))
				b = append(sp(b), ']')
			}
			b = append(sp(b), ']')
		}
		return append(sp(b), ']')
	}
	b = append(sp(b), '{')
	if st.dataFirst {
		b = timeMember(append(sp(dataMember(b)), ','))
	} else {
		b = dataMember(append(sp(timeMember(b)), ','))
	}
	return append(sp(b), '}')
}

// fuzzAnts × fuzzSamples is the frame shape of the fuzz target: small, so
// the fuzzer spends its time on structure rather than on long arrays.
const fuzzAnts, fuzzSamples = 2, 3

// fuzzFrame builds a frame of the fuzz shape from seed bytes: every 8
// bytes are one float64, non-finite values folded to finite ones.
func fuzzFrame(seed []byte) *fmcw.Frame {
	vals := make([]float64, 1+2*fuzzAnts*fuzzSamples)
	for i := range vals {
		var bits uint64
		for j := 0; j < 8; j++ {
			if k := 8*i + j; k < len(seed) {
				bits = bits<<8 | uint64(seed[k])
			}
		}
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(bits >> 12)
		}
		vals[i] = v
	}
	f := shapedFrame(fuzzAnts, fuzzSamples)
	f.Time = vals[0]
	for k, row := range f.Data {
		for i := range row {
			j := 1 + 2*(k*fuzzSamples+i)
			row[i] = complex(vals[j], vals[j+1])
		}
	}
	return f
}

// fuzzSeeds is the seed corpus: canonical frames in every style, reordered
// keys, whitespace and concatenation, truncation at every structural byte,
// wrong shapes, non-numbers and malformed numbers, and numbers at the
// length cap and one byte past it.
func fuzzSeeds() [][]byte {
	f := fuzzFrame([]byte("seed frame: IF samples of two antennas"))
	canon := encodeFrame(nil, f, frameStyle{fmt: 'g'})
	seeds := [][]byte{canon}
	for _, st := range []frameStyle{
		{dataFirst: true, fmt: 'g'},
		{fmt: 'e', spaced: true},
		{dataFirst: true, fmt: 'E', spaced: true},
	} {
		seeds = append(seeds, encodeFrame(nil, f, st))
	}
	seeds = append(seeds,
		append(append(append([]byte(nil), canon...), canon...), canon...),
		[]byte(string(canon)+"\n"+string(canon)+"\n"),
		[]byte(" \r\n\t"),
		[]byte(""),
	)
	for i, c := range canon {
		if strings.IndexByte(`{}[],:"`, c) >= 0 {
			seeds = append(seeds, append([]byte(nil), canon[:i]...))
		}
	}
	const pair = `[0.5,-1]`
	row := "[" + pair + "," + pair + "," + pair + "]"
	frame := func(time, data string) []byte {
		return []byte(`{"time":` + time + `,"data":` + data + `}`)
	}
	long := "1." + strings.Repeat("0", maxNumberLen-2)
	seeds = append(seeds,
		frame("0", "["+row+"]"),                         // one antenna short
		frame("0", "["+row+","+row+","+row+"]"),         // one antenna extra
		frame("0", "["+row+",["+pair+"]]"),              // short row
		frame("0", "["+row+",["+pair+","+row[1:]+"]"),   // long row
		frame("0", "[["+pair+","+pair+",[1]],"+row+"]"), // short pair
		frame("0", "[[[1,2,3],"+pair+","+pair+"],"+row+"]"),
		frame("0", "[]"),
		frame("null", "["+row+","+row+"]"),
		frame(long, "["+row+","+row+"]"),
		frame(long+"0", "["+row+","+row+"]"),
		[]byte(`{"data":[`+row+`,`+row+`]}`),
		[]byte(`{"time":1,"data":[`+row+`,`+row+`],"time":2}`),
		[]byte(`{"time":1,"data":[`+row+`,`+row+`],"extra":2}`),
		[]byte(`{"time":1,"data":[`+row+`,`+row+`]}`),
		[]byte(`{"Time":1,"data":[`+row+`,`+row+`]}`),
		[]byte(`[1,2]`),
	)
	for _, bad := range []string{"NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "01", "-", ".5", "1.", "1e", "1e+", "-0", "+1", "0x10", "1_0"} {
		seeds = append(seeds,
			frame(bad, "["+row+","+row+"]"),
			frame("0", "[["+pair+","+pair+",["+bad+",0]],"+row+"]"))
	}
	return seeds
}

// FuzzIngestFrame holds frameDecoder to the encoding/json oracle. On any
// body, every frame the decoder accepts the oracle accepts too, with
// bit-identical time and samples, and a body the decoder accepts whole the
// oracle accepts whole. On canonical input — a frame built from the fuzz
// bytes and encoded with literal keys, each once, and numbers under the
// cap — both accept and reproduce the frame's bits.
func FuzzIngestFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeNew(bytes.NewReader(body), fuzzAnts, fuzzSamples)
		want, wantErr := decodeOracle(body, fuzzAnts, fuzzSamples)
		if len(got) > len(want) {
			t.Fatalf("decoder accepted %d frames, oracle only %d (oracle error %v)", len(got), len(want), wantErr)
		}
		for i := range got {
			if !sameFrame(got[i], want[i]) {
				t.Fatalf("frame %d differs from the oracle's", i)
			}
		}
		if gotErr == nil && (wantErr != nil || len(want) != len(got)) {
			t.Fatalf("decoder accepted the body, oracle: %d frames, error %v", len(want), wantErr)
		}

		src := fuzzFrame(body)
		var sel byte
		if len(body) > 0 {
			sel = body[len(body)-1]
		}
		st := frameStyle{dataFirst: sel&1 != 0, fmt: "geGE"[sel>>1&3], spaced: sel&8 != 0}
		canon := encodeFrame(nil, src, st)
		if sel&16 != 0 {
			canon = encodeFrame(canon, src, st) // concatenated pair
		}
		got, gotErr = decodeNew(bytes.NewReader(canon), fuzzAnts, fuzzSamples)
		want, wantErr = decodeOracle(canon, fuzzAnts, fuzzSamples)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("canonical body rejected: decoder %v, oracle %v\n%s", gotErr, wantErr, canon)
		}
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("canonical body: decoder %d frames, oracle %d", len(got), len(want))
		}
		for i := range got {
			if !sameFrame(got[i], src) || !sameFrame(want[i], src) {
				t.Fatalf("canonical frame %d does not round-trip bit for bit", i)
			}
		}
	})
}

// TestFrameDecoderRejects pins what the decoder refuses, and the shape
// errors it shares with the old decode path word for word.
func TestFrameDecoderRejects(t *testing.T) {
	const pair = `[0.5,-1]`
	row := "[" + pair + "," + pair + "," + pair + "]"
	data := "[" + row + "," + row + "]"
	frame := func(time, data string) string { return `{"time":` + time + `,"data":` + data + `}` }
	long := "1." + strings.Repeat("0", maxNumberLen-2)
	for _, c := range []struct{ name, body, want string }{
		{"nan", frame("NaN", data), "invalid number"},
		{"infinity", frame("0", "[["+pair+","+pair+",[Infinity,0]],"+row+"]"), "invalid number"},
		{"null", frame("null", data), "invalid number"},
		{"overflow", frame("1e400", data), "out of float64 range"},
		{"leading zero", frame("01", data), `found '1', want '}'`},
		{"bare minus", frame("-", data), "invalid number"},
		{"no int part", frame(".5", data), "invalid number"},
		{"no fraction", frame("1.", data), "invalid number"},
		{"no exponent", frame("1e", data), "invalid number"},
		{"too long", frame(long+"0", data), "longer than 256 bytes"},
		{"unknown key", `{"time":0,"data":` + data + `,"x":1}`, "unknown key"},
		{"case-folded key", `{"Time":0,"data":` + data + `}`, "unknown key"},
		{"duplicate key", `{"time":0,"time":1,"data":` + data + `}`, "duplicate key"},
		{"escaped key", `{"t\u0069me":0,"data":` + data + `}`, "escaped keys"},
		{"missing time", `{"data":` + data + `}`, `needs both "time" and "data"`},
		{"empty object", `{}`, `found '}', want '"'`},
		{"truncated", strings.TrimSuffix(frame("0", data), "]}"), "unexpected EOF"},
		{"truncated key", `{"ti`, "unexpected EOF"},
		{"antennas", frame("0", "["+row+"]"), "service: frame has 1 antennas, room expects 2"},
		{"antennas and samples", frame("0", "[["+pair+"],"+row+","+row+"]"), "service: frame has 3 antennas, room expects 2"},
		{"samples", frame("0", "["+row+",["+pair+"]]"), "service: antenna 1 has 1 samples, room expects 3"},
		{"extra pair value", frame("0", "[[[1,2,3],"+pair+","+pair+"],"+row+"]"), `found ',', want ']'`},
		{"not an object", `[1,2]`, `found '[', want '{'`},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := decodeNew(strings.NewReader(c.body), fuzzAnts, fuzzSamples)
			if err == nil || len(got) != 0 {
				t.Fatalf("accepted %d frames, err %v", len(got), err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
	// At the cap the same number is accepted.
	if got, err := decodeNew(strings.NewReader(frame(long, data)), fuzzAnts, fuzzSamples); err != nil || len(got) != 1 || got[0].Time != 1 {
		t.Fatalf("number at the length cap: %d frames, err %v", len(got), err)
	}
}

// canonicalFrames synthesizes n full-size frames of a walking human and
// encodes them in the wire format, alternating key order.
func canonicalFrames(t testing.TB, n int) ([]*fmcw.Frame, [][]byte) {
	t.Helper()
	sc := scene.NewScene(scene.HomeRoom(), fmcw.DefaultParams())
	human, _ := smokeTraj(sc.Radar.Position.X, n)
	sc.Humans = append(sc.Humans, scene.NewHuman(human, sc.Params.FrameRate))
	frames, err := sc.CaptureCtx(context.Background(), 0, n, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	enc := make([][]byte, n)
	for i, f := range frames {
		enc[i] = append(encodeFrame(nil, f, frameStyle{dataFirst: i%2 == 1, fmt: 'g'}), '\n')
	}
	return frames, enc
}

// TestFrameDecoderReaders decodes full-size frames through readers that cut
// the body at every byte and that fail mid-body: a frame straddling any
// number of buffer fills decodes bit for bit, and a read error surfaces.
func TestFrameDecoderReaders(t *testing.T) {
	frames, enc := canonicalFrames(t, 3)
	body := bytes.Join(enc, nil)
	p := frames[0].Params
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(body),
		"one-byte": iotest.OneByteReader(bytes.NewReader(body)),
		"data-err": iotest.DataErrReader(bytes.NewReader(body)),
	} {
		got, err := decodeNew(r, p.NumAntennas, p.SamplesPerChirp())
		if err != nil || len(got) != len(frames) {
			t.Fatalf("%s: %d frames, err %v", name, len(got), err)
		}
		for i := range got {
			if !sameFrame(got[i], frames[i]) {
				t.Fatalf("%s: frame %d differs from the source", name, i)
			}
		}
	}
	boom := errors.New("connection reset")
	r := io.MultiReader(bytes.NewReader(body[:len(body)/2]), iotest.ErrReader(boom))
	if got, err := decodeNew(r, p.NumAntennas, p.SamplesPerChirp()); !errors.Is(err, boom) || len(got) != 1 {
		t.Fatalf("read error mid-body: %d frames, err %v; want 1 frame then %v", len(got), err, boom)
	}
	if _, err := decodeNew(iotest.ErrReader(boom), 1, 1); !errors.Is(err, boom) {
		t.Fatalf("read error before any frame: err %v", err)
	}
}

// TestFrameDecoderZeroAllocs pins the warm decode at exactly zero
// allocations per frame: the decoder comes off its free list, fills a
// pooled frame, and goes back.
func TestFrameDecoderZeroAllocs(t *testing.T) {
	frames, enc := canonicalFrames(t, 2)
	body := bytes.Join(enc, nil)
	pool := fmcw.NewFramePool(frames[0].Params)
	br := bytes.NewReader(body)
	run := func() {
		br.Reset(body)
		d := getFrameDecoder(br)
		for {
			more, err := d.more()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			f := pool.Get(0)
			if err := d.decode(f); err != nil {
				t.Fatal(err)
			}
			pool.Put(f)
		}
		putFrameDecoder(d)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm decode allocates %v per %d-frame body, want 0", allocs, len(frames))
	}
}

// postFrames POSTs body to room id's ingest endpoint and returns the
// ingested count.
func postFrames(t *testing.T, srv *httptest.Server, id string, body []byte) int {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/rooms/"+id+"/frames", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ing struct {
		Ingested int    `json:"ingested"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST frames: status %d: %s", resp.StatusCode, ing.Error)
	}
	return ing.Ingested
}

// TestIngestHTTPBitIdentical sends one frame sequence to two ingest rooms:
// over HTTP as NDJSON — time-first and data-first frames, one per line,
// then a batch concatenated with no separator — and through Room.Push.
// Both rooms carry a Doppler stage, and their track dumps must be
// identical bit for bit.
func TestIngestHTTPBitIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 2)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	cfg := RoomConfig{DopplerWindow: 8, QueueDepth: 256}
	cfg.ID = "http"
	if _, err := m.CreateRoom(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.ID = "push"
	direct, err := m.CreateRoom(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 48
	frames, enc := canonicalFrames(t, n)
	sent := 0
	for _, i := range []int{0, 1, 2, 3} { // one per POST, both key orders
		sent += postFrames(t, srv, "http", enc[i])
	}
	sent += postFrames(t, srv, "http", bytes.Join(enc[4:24], nil)) // NDJSON batch
	var cat []byte
	for _, e := range enc[24:] { // concatenated batch
		cat = append(cat, bytes.TrimRight(e, "\n")...)
	}
	sent += postFrames(t, srv, "http", cat)
	if sent != n {
		t.Fatalf("ingested %d frames over HTTP, want %d", sent, n)
	}
	for _, f := range frames {
		g := direct.pools.Frames.Get(f.Time)
		g.CopyFrom(f)
		if err := direct.Push(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	}

	var dumps [2][]TrackDump
	for i, id := range []string{"http", "push"} {
		r, _ := m.Room(id)
		if _, err := m.CloseRoom(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if st := r.Status(); st.Frames != n {
			t.Fatalf("room %s processed %d frames, want %d", id, st.Frames, n)
		}
		dumps[i] = r.TrackDumps()
	}
	if len(dumps[1]) == 0 {
		t.Fatal("the frame sequence produced no tracks; the comparison proves nothing")
	}
	a, _ := json.Marshal(dumps[0])
	b, _ := json.Marshal(dumps[1])
	if !bytes.Equal(a, b) {
		t.Fatalf("HTTP-ingested tracks differ from pushed ones:\n%s\n%s", a, b)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSurvivesOverflowingFrame ingests one frame of huge but finite
// samples between all-zero ones. The decoder accepts every value, but the
// range FFT and beamforming overflow on them; no detection or velocity built
// from that overflow may reach an event, because a NaN or Inf in an Event
// fails its JSON encoding and would end the subscriber's stream. With and
// without a Doppler stage, the stream must carry all four frames' events
// and then the final line.
func TestStreamSurvivesOverflowingFrame(t *testing.T) {
	p := fmcw.DefaultParams()
	var body []byte
	for i := 0; i < 4; i++ {
		f := fmcw.NewFrame(p, float64(i)/p.FrameRate)
		if i == 1 {
			for _, row := range f.Data {
				for j := range row {
					row[j] = complex(1e160*float64(j%3), 0)
				}
			}
		}
		body = append(encodeFrame(body, f, frameStyle{fmt: 'g'}), '\n')
	}
	for _, window := range []int{0, 8} {
		t.Run(fmt.Sprintf("doppler_window=%d", window), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := NewManager(ctx, 1)
			srv := httptest.NewServer(m.Handler())
			defer srv.Close()
			if _, err := m.CreateRoom(RoomConfig{ID: "hot", DopplerWindow: window, QueueDepth: 8}); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(srv.URL + "/v1/rooms/hot/stream")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if got := postFrames(t, srv, "hot", body); got != 4 {
				t.Fatalf("ingested %d frames, want 4", got)
			}
			if _, err := m.CloseRoom(context.Background(), "hot"); err != nil {
				t.Fatal(err)
			}
			var frames []int
			final := false
			dec := json.NewDecoder(resp.Body)
			for {
				var ev Event
				if err := dec.Decode(&ev); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				if ev.Final {
					final = true
					continue
				}
				frames = append(frames, ev.Frame)
			}
			if len(frames) != 4 || !final {
				t.Fatalf("stream carried events for frames %v (final line: %v), want frames [0 1 2 3] and a final line", frames, final)
			}
			if err := m.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestProgramGhostConcurrentIndices POSTs ghosts to one ingest room from
// many goroutines at once: each response must carry its own record's
// index, so the indices are exactly 0..n-1.
func TestProgramGhostConcurrentIndices(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 1)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	if _, err := m.CreateRoom(RoomConfig{ID: "tag"}); err != nil {
		t.Fatal(err)
	}
	_, ghost := smokeTraj(3, 16)
	body, _ := json.Marshal(TrajSpec{Points: ghost})
	const n = 16
	idx := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/rooms/tag/ghosts", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st GhostStatus
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("POST ghost: status %d", resp.StatusCode)
			} else if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
			}
			idx[i] = st.Index
		}(i)
	}
	wg.Wait()
	sort.Ints(idx)
	for i, got := range idx {
		if got != i {
			t.Fatalf("ghost indices %v, want 0..%d each once", idx, n-1)
		}
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestControlBodiesCapped pins the control-body cap on each endpoint that
// decodes one: a create-room or program-ghost body past maxControlBody is
// refused with 413 instead of being buffered whole.
func TestControlBodiesCapped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewManager(ctx, 1)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	if _, err := m.CreateRoom(RoomConfig{ID: "tag"}); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("a", maxControlBody)
	for _, c := range []struct{ name, path, body string }{
		{"create-room", "/v1/rooms", `{"id":"` + pad + `"}`},
		{"program-ghost", "/v1/rooms/tag/ghosts", `{"points":[{"X":1,"Y":1},{"X":2,"Y":2}],"pad":"` + pad + `"}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("body over the cap: status %d, want 413", resp.StatusCode)
			}
		})
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
