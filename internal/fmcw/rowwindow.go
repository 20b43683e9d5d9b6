package fmcw

// RowWindow is a bounded sliding window of the last K IF rows — one
// antenna's samples of each frame — held in a ring buffer. It is the
// bounded-memory substrate for slow-time stages that read a single antenna
// (the sliding range–Doppler burst): a consumer that pushes every capture
// frame's row holds exactly K rows regardless of capture length, and never
// the other antennas' samples.
//
// The window owns its rows: PushCopy copies the caller's samples into the
// evicted slot, so the caller may recycle or overwrite its frame as soon
// as PushCopy returns (the pooled buffer-ownership contract). A warmed-up
// window allocates nothing per push.
type RowWindow struct {
	rows [][]complex128
	head int // next slot to overwrite
	n    int // rows currently held, <= len(rows)
}

// NewRowWindow returns an empty window of capacity k (k < 1 is treated as
// 1).
func NewRowWindow(k int) *RowWindow {
	if k < 1 {
		k = 1
	}
	return &RowWindow{rows: make([][]complex128, k)}
}

// PushCopy appends a private copy of row, evicting the oldest row once the
// window is full. The evicted slot's storage is reused when it has row's
// length, so pushing equally long rows allocates only while the window
// first fills.
//
//rfvet:allocfree
func (w *RowWindow) PushCopy(row []complex128) {
	dst := w.rows[w.head]
	if len(dst) != len(row) {
		dst = newRow(len(row))
		w.rows[w.head] = dst
	}
	copy(dst, row)
	w.head = (w.head + 1) % len(w.rows)
	if w.n < len(w.rows) {
		w.n++
	}
}

// newRow allocates one window slot. noinline keeps the warm-up allocation
// out of PushCopy's //rfvet:allocfree escape diagnostics.
//
//go:noinline
func newRow(n int) []complex128 { return make([]complex128, n) }

// Len returns the number of rows currently held.
func (w *RowWindow) Len() int { return w.n }

// Cap returns the window capacity K.
func (w *RowWindow) Cap() int { return len(w.rows) }

// Full reports whether the window holds K rows.
func (w *RowWindow) Full() bool { return w.n == len(w.rows) }

// Rows appends the held rows to dst in arrival order (oldest first) and
// returns the result — the scratch-reusing accessor, so a stage that calls
// Rows(scratch[:0]) every frame allocates nothing in steady state. The
// returned slice aliases the window's rows; the next PushCopy overwrites
// the oldest of them.
func (w *RowWindow) Rows(dst [][]complex128) [][]complex128 {
	start := w.head - w.n
	if start < 0 {
		start += len(w.rows)
	}
	for i := 0; i < w.n; i++ {
		dst = append(dst, w.rows[(start+i)%len(w.rows)])
	}
	return dst
}

// Reset empties the window. Slot storage is kept, so refilling a reset
// window with rows of the same length allocates nothing.
func (w *RowWindow) Reset() { w.head, w.n = 0, 0 }
