package service

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"rfprotect/internal/fmcw"
	"rfprotect/internal/parallel"
)

// The ingest body is the radar boundary: whatever reaches it is
// attacker-controlled, so frameDecoder is a strict validator first and a
// parser second. It accepts exactly this grammar (JSON whitespace allowed
// between any two tokens):
//
//	body   = { frame }                        newline-separated or concatenated
//	frame  = "{" member "," member "}"        "time" and "data", once each, either order
//	member = `"time"` ":" number | `"data"` ":" "[" [ row { "," row } ] "]"
//	row    = "[" [ pair { "," pair } ] "]"
//	pair   = "[" number "," number "]"
//
// Keys must be the literal bytes time or data: unknown, duplicate and
// escaped keys are rejected, as are null, NaN and Infinity. A number must
// match the JSON number grammar, be at most maxNumberLen bytes long, and
// parse to a finite float64; it is parsed with strconv.ParseFloat(tok, 64),
// the call encoding/json makes, so every sample is bit-identical to a
// decode through encoding/json.

// maxNumberLen caps one number token. Shortest round-trip float64 encoders
// emit at most 24 bytes; the cap leaves ample room for hand-written input
// while keeping every token inside one buffer fill.
const maxNumberLen = 256

// ingestBufSize is the decoder's read buffer: the whole per-request memory
// of the ingest path, whatever the body length.
const ingestBufSize = 32 << 10

// Object keys of a frame, indexing frameDecoder.decode's seen flags.
const (
	keyTime = iota
	keyData
)

// frameDecoder streams frames out of an ingest body through a fixed-size
// buffer, parsing each one straight into a caller-supplied (pooled) frame.
// Decoders are recycled through frameDecoders, so a warm request allocates
// nothing for decoding.
type frameDecoder struct {
	r   io.Reader
	buf [ingestBufSize]byte
	pos int   // next unread byte in buf
	end int   // end of the buffered bytes
	off int64 // body offset of buf[0], for error positions
	err error // sticky read error; io.EOF once the body ended
}

var frameDecoders parallel.FreeList[*frameDecoder]

// getFrameDecoder returns a decoder reading body; release it with
// putFrameDecoder.
func getFrameDecoder(body io.Reader) *frameDecoder {
	d, ok := frameDecoders.Get()
	if !ok {
		d = new(frameDecoder)
	}
	d.r, d.pos, d.end, d.off, d.err = body, 0, 0, 0, nil
	return d
}

// putFrameDecoder recycles d. It must not be used afterwards.
func putFrameDecoder(d *frameDecoder) {
	d.r, d.err = nil, nil
	frameDecoders.Put(d)
}

// fill reads until at least n bytes (n <= len(buf)) are buffered past pos
// or the body ends, moving the unread tail to the front of the buffer first
// when it is short on room.
func (d *frameDecoder) fill(n int) {
	if d.end-d.pos >= n || d.err != nil {
		return
	}
	if d.pos > 0 {
		d.end = copy(d.buf[:], d.buf[d.pos:d.end])
		d.off += int64(d.pos)
		d.pos = 0
	}
	for d.end < n && d.err == nil {
		var k int
		k, d.err = d.r.Read(d.buf[d.end:])
		d.end += k
	}
}

// peek skips JSON whitespace and returns the next byte without consuming
// it; ok is false once the body has no more bytes.
func (d *frameDecoder) peek() (c byte, ok bool) {
	for {
		for d.pos < d.end {
			c = d.buf[d.pos]
			if c != ' ' && c != '\n' && c != '\r' && c != '\t' {
				return c, true
			}
			d.pos++
		}
		d.fill(1)
		if d.pos == d.end {
			return 0, false
		}
	}
}

// more reports whether another frame follows; it is false with a nil error
// at a clean end of the body (only whitespace left).
func (d *frameDecoder) more() (bool, error) {
	if _, ok := d.peek(); ok {
		return true, nil
	}
	if d.err == io.EOF {
		return false, nil
	}
	return false, d.cut()
}

// expect consumes the next non-whitespace byte, which must be want.
func (d *frameDecoder) expect(want byte) error {
	c, ok := d.peek()
	if !ok {
		return d.cut()
	}
	if c != want {
		return unexpectedByte(d.off+int64(d.pos), c, want)
	}
	d.pos++
	return nil
}

// decode parses the body's next frame into f, whose shape is the room's:
// f.Time and every sample are overwritten on success. On error f holds a
// partial frame and must be recycled.
//
//rfvet:allocfree
func (d *frameDecoder) decode(f *fmcw.Frame) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	var seen [2]bool
	for {
		k, err := d.key()
		if err != nil {
			return err
		}
		if seen[k] {
			return bodyError(d.off+int64(d.pos), "duplicate key")
		}
		seen[k] = true
		if err := d.expect(':'); err != nil {
			return err
		}
		if k == keyTime {
			if f.Time, err = d.number(); err != nil {
				return err
			}
		} else if err := d.data(f); err != nil {
			return err
		}
		c, ok := d.peek()
		if !ok {
			return d.cut()
		}
		d.pos++
		if c == '}' {
			break
		}
		if c != ',' {
			return unexpectedByte(d.off+int64(d.pos-1), c, '}')
		}
	}
	if !seen[keyTime] || !seen[keyData] {
		return bodyError(d.off+int64(d.pos), `a frame needs both "time" and "data"`)
	}
	return nil
}

// key consumes one object key, which must be the literal "time" or "data".
//
//rfvet:allocfree
func (d *frameDecoder) key() (int, error) {
	if err := d.expect('"'); err != nil {
		return 0, err
	}
	d.fill(len(`time"`))
	b := d.buf[d.pos:d.end]
	for i := 0; i < len(b) && i < len(`time"`); i++ {
		switch b[i] {
		case '\\':
			return 0, bodyError(d.off+int64(d.pos+i), "escaped keys are not accepted")
		case '"':
			switch string(b[:i]) {
			case "time":
				d.pos += i + 1
				return keyTime, nil
			case "data":
				d.pos += i + 1
				return keyData, nil
			}
			return 0, unknownKey(d.off + int64(d.pos))
		}
	}
	if len(b) < len(`time"`) {
		return 0, d.cut()
	}
	return 0, unknownKey(d.off + int64(d.pos))
}

// data parses the "data" array into f.Data. Rows past f's antenna count and
// samples past a row's length are parsed and counted but not stored, so
// the shape errors report the body's true counts, as encoding/json would.
//
//rfvet:allocfree
func (d *frameDecoder) data(f *fmcw.Frame) error {
	if err := d.expect('['); err != nil {
		return err
	}
	rows, badRow, badLen := 0, -1, 0
	if c, ok := d.peek(); !ok {
		return d.cut()
	} else if c == ']' {
		d.pos++
	} else {
		for {
			var dst []complex128
			if rows < len(f.Data) {
				dst = f.Data[rows]
			}
			n, err := d.row(dst)
			if err != nil {
				return err
			}
			if n != len(dst) && badRow < 0 && rows < len(f.Data) {
				badRow, badLen = rows, n
			}
			rows++
			if done, err := d.listNext(); err != nil {
				return err
			} else if done {
				break
			}
		}
	}
	if rows != len(f.Data) {
		return antennaCountError(rows, len(f.Data))
	}
	if badRow >= 0 {
		return sampleCountError(badRow, badLen, len(f.Data[badRow]))
	}
	return nil
}

// row parses one antenna's [re, im] pairs into dst and returns how many the
// body held; pairs past len(dst) are validated and dropped.
//
//rfvet:allocfree
func (d *frameDecoder) row(dst []complex128) (int, error) {
	if err := d.expect('['); err != nil {
		return 0, err
	}
	if c, ok := d.peek(); !ok {
		return 0, d.cut()
	} else if c == ']' {
		d.pos++
		return 0, nil
	}
	n := 0
	for {
		if err := d.expect('['); err != nil {
			return n, err
		}
		re, err := d.number()
		if err != nil {
			return n, err
		}
		if err := d.expect(','); err != nil {
			return n, err
		}
		im, err := d.number()
		if err != nil {
			return n, err
		}
		if err := d.expect(']'); err != nil {
			return n, err
		}
		if n < len(dst) {
			dst[n] = complex(re, im)
		}
		n++
		if done, err := d.listNext(); err != nil {
			return n, err
		} else if done {
			return n, nil
		}
	}
}

// listNext consumes the separator after an array element: true at the
// closing ']', false at a ','.
func (d *frameDecoder) listNext() (done bool, err error) {
	c, ok := d.peek()
	if !ok {
		return false, d.cut()
	}
	d.pos++
	switch c {
	case ']':
		return true, nil
	case ',':
		return false, nil
	}
	return false, unexpectedByte(d.off+int64(d.pos-1), c, ']')
}

// number consumes one JSON number and parses it exactly as encoding/json
// does.
//
//rfvet:allocfree
func (d *frameDecoder) number() (float64, error) {
	if _, ok := d.peek(); !ok {
		return 0, d.cut()
	}
	// With maxNumberLen+1 bytes buffered, any token within the cap ends
	// inside the buffer, so it never straddles a fill.
	d.fill(maxNumberLen + 1)
	b := d.buf[d.pos:d.end]
	n := numberLen(b)
	if n == 0 {
		return 0, bodyError(d.off+int64(d.pos), "invalid number (null, NaN and Infinity are rejected)")
	}
	if n > maxNumberLen {
		return 0, bodyError(d.off+int64(d.pos), "number longer than 256 bytes")
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		return 0, numberError(d.off+int64(d.pos), err)
	}
	d.pos += n
	return v, nil
}

// numberLen returns the length of the JSON number at the start of b, or 0
// when b does not start with one: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// cut reports the body ending where a frame still needed bytes: a truncated
// body at EOF, otherwise the read error.
func (d *frameDecoder) cut() error {
	if d.err == nil || d.err == io.EOF {
		return bodyError(d.off+int64(d.pos), io.ErrUnexpectedEOF.Error())
	}
	return readError(d.err)
}

// The error constructors stay out of line so the //rfvet:allocfree decode
// path carries no boxing of their arguments.

//go:noinline
func bodyError(off int64, msg string) error {
	return fmt.Errorf("service: ingest body at byte %d: %s", off, msg)
}

//go:noinline
func readError(err error) error {
	return fmt.Errorf("service: reading ingest body: %w", err)
}

//go:noinline
func unknownKey(off int64) error {
	return bodyError(off, `unknown key: a frame has only "time" and "data"`)
}

//go:noinline
func unexpectedByte(off int64, found, want byte) error {
	return fmt.Errorf("service: ingest body at byte %d: found %q, want %q", off, found, want)
}

//go:noinline
func numberError(off int64, err error) error {
	if errors.Is(err, strconv.ErrRange) {
		return fmt.Errorf("service: ingest body at byte %d: number out of float64 range", off)
	}
	return fmt.Errorf("service: ingest body at byte %d: %w", off, err)
}

//go:noinline
func antennaCountError(got, want int) error {
	return fmt.Errorf("service: frame has %d antennas, room expects %d", got, want)
}

//go:noinline
func sampleCountError(k, got, want int) error {
	return fmt.Errorf("service: antenna %d has %d samples, room expects %d", k, got, want)
}
