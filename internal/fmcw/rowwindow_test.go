package fmcw

import (
	"math/rand"
	"testing"
)

// stampRow returns an n-sample row whose every sample is complex(v, 0), so
// a held row's arrival is readable from its first sample.
func stampRow(n int, v float64) []complex128 {
	row := make([]complex128, n)
	for i := range row {
		row[i] = complex(v, 0)
	}
	return row
}

func checkOrder(t *testing.T, got [][]complex128, want ...float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("window holds %d rows, want %d", len(got), len(want))
	}
	for i, v := range want {
		if got[i][0] != complex(v, 0) {
			t.Fatalf("row %d holds %v, want %v (oldest-first order)", i, got[i][0], v)
		}
	}
}

func TestWindowSlides(t *testing.T) {
	w := NewRowWindow(3)
	if w.Cap() != 3 || w.Len() != 0 || w.Full() {
		t.Fatalf("fresh window: cap %d len %d full %v", w.Cap(), w.Len(), w.Full())
	}
	w.PushCopy(stampRow(8, 0))
	w.PushCopy(stampRow(8, 1))
	if w.Full() {
		t.Fatal("window full after 2 of 3 rows")
	}
	w.PushCopy(stampRow(8, 2))
	if !w.Full() || w.Len() != 3 {
		t.Fatal("window should be full after 3 rows")
	}
	// Sliding: push two more, the two oldest are evicted.
	w.PushCopy(stampRow(8, 3))
	w.PushCopy(stampRow(8, 4))
	checkOrder(t, w.Rows(nil), 2, 3, 4)
}

func TestWindowFramesReusesScratch(t *testing.T) {
	w := NewRowWindow(4)
	for i := 0; i < 6; i++ {
		w.PushCopy(stampRow(8, float64(i)))
	}
	scratch := make([][]complex128, 0, 4)
	out := w.Rows(scratch)
	if &out[0] != &scratch[:1][0] {
		t.Fatal("Rows did not append into the provided scratch slice")
	}
	checkOrder(t, out, 2, 3, 4, 5)
	if allocs := testing.AllocsPerRun(50, func() { out = w.Rows(out[:0]) }); allocs != 0 {
		t.Fatalf("Rows into warm scratch allocates %v per op, want 0", allocs)
	}
}

func TestWindowPartialAndReset(t *testing.T) {
	w := NewRowWindow(5)
	w.PushCopy(stampRow(8, 7))
	w.PushCopy(stampRow(8, 8))
	checkOrder(t, w.Rows(nil), 7, 8)
	w.Reset()
	if w.Len() != 0 || w.Full() {
		t.Fatal("Reset did not empty the window")
	}
	if got := w.Rows(nil); len(got) != 0 {
		t.Fatalf("rows after Reset: %d", len(got))
	}
	// A reset window refills in arrival order on its kept storage.
	w.PushCopy(stampRow(8, 9))
	checkOrder(t, w.Rows(nil), 9)
	// Degenerate capacity is clamped to 1.
	one := NewRowWindow(0)
	one.PushCopy(stampRow(8, 1))
	one.PushCopy(stampRow(8, 2))
	checkOrder(t, one.Rows(nil), 2)
}

// PushCopy must hold the pushed samples in order while never aliasing the
// caller's row, and a warmed-up window reuses evicted storage.
func TestWindowPushCopy(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(2))
	w := NewRowWindow(3)
	var scratch [][]complex128
	src := NewFrame(p, 0)
	const antenna = 1
	for i := 0; i < 7; i++ {
		want := synthFrame(p, testReturns(3, int64(i)), float64(i), rng, 0)
		src.CopyFrom(want)
		w.PushCopy(src.Data[antenna])
		src.Reset() // the window must hold its own copy
		scratch = w.Rows(scratch[:0])
		last := scratch[len(scratch)-1]
		for j, v := range want.Data[antenna] {
			if last[j] != v {
				t.Fatalf("push %d: window tail differs from pushed row at sample %d", i, j)
			}
		}
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	row := src.Data[antenna]
	if allocs := testing.AllocsPerRun(50, func() { w.PushCopy(row) }); allocs != 0 {
		t.Fatalf("PushCopy allocates %v per op in steady state, want 0", allocs)
	}
	// A row of a different length replaces the evicted slot's storage.
	w.PushCopy(stampRow(len(row)+1, 5))
	scratch = w.Rows(scratch[:0])
	if last := scratch[len(scratch)-1]; len(last) != len(row)+1 || last[len(row)] != 5 {
		t.Fatalf("resized push: tail has %d samples, want %d", len(last), len(row)+1)
	}
}
