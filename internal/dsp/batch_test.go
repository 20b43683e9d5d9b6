package dsp

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// naiveSlowTimeFFT is the O(n^2)-DFT reference: window each range bin's
// slow-time column, then transform it.
func naiveSlowTimeFFT(rows [][]complex128, bins int, win []float64) [][]complex128 {
	nd := len(rows)
	cols := make([][]complex128, bins)
	for r := range cols {
		col := make([]complex128, nd)
		for k := 0; k < nd; k++ {
			col[k] = rows[k][r]
			if win != nil {
				col[k] *= complex(win[k], 0)
			}
		}
		cols[r] = naiveDFT(col, false)
	}
	return cols
}

func randRows(rng *rand.Rand, nd, width int) [][]complex128 {
	rows := make([][]complex128, nd)
	for k := range rows {
		rows[k] = randComplex(rng, width)
	}
	return rows
}

// TestSlowTimeFFTMatchesNaive checks the batched per-bin transform against
// the naive reference, for power-of-two and Bluestein slow-time lengths,
// with and without a window, truncated to bins < row width.
func TestSlowTimeFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		nd, width, bins int
		windowed        bool
	}{
		{8, 16, 16, false},
		{8, 16, 10, true}, // bins < width: trailing range bins dropped
		{7, 12, 12, true}, // non-power-of-two slow time (Bluestein)
		{1, 5, 5, false},  // single chirp
	} {
		rows := randRows(rng, tc.nd, tc.width)
		var win []float64
		if tc.windowed {
			win = Hann.Coefficients(tc.nd)
		}
		got, err := SlowTimeFFT(context.Background(), rows, tc.bins, win, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveSlowTimeFFT(rows, tc.bins, win)
		if len(got) != tc.bins {
			t.Fatalf("nd=%d bins=%d: got %d columns", tc.nd, tc.bins, len(got))
		}
		for r := range want {
			for k := range want[r] {
				if !almostEqualC(got[r][k], want[r][k], 1e-8*float64(tc.nd)) {
					t.Fatalf("nd=%d bins=%d windowed=%v: col %d bin %d: got %v want %v",
						tc.nd, tc.bins, tc.windowed, r, k, got[r][k], want[r][k])
				}
			}
		}
	}
}

// TestSlowTimeFFTWorkerIdentity: each output column is an independent write,
// so the result must be bit-identical for every worker count.
func TestSlowTimeFFTWorkerIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := randRows(rng, 16, 32)
	win := Hann.Coefficients(16)
	want, err := SlowTimeFFT(context.Background(), rows, 32, win, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		got, err := SlowTimeFFT(context.Background(), rows, 32, win, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: slow-time FFT not bit-identical to single worker", workers)
		}
	}
}

// TestSlowTimeFFTCancel: a pre-canceled ctx discards the batch and returns
// the ctx error.
func TestSlowTimeFFTCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randRows(rng, 8, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := SlowTimeFFT(ctx, rows, 64, nil, 2)
	if err != context.Canceled {
		t.Fatalf("SlowTimeFFT = %v, want context.Canceled", err)
	}
	if got != nil {
		t.Fatal("canceled SlowTimeFFT must not return a partial batch")
	}
}

// TestSlowTimeFFTDegenerate covers the empty-input contracts.
func TestSlowTimeFFTDegenerate(t *testing.T) {
	if got, err := SlowTimeFFT(context.Background(), nil, 8, nil, 1); got != nil || err != nil {
		t.Fatalf("zero rows: got (%v, %v), want (nil, nil)", got, err)
	}
	rows := [][]complex128{{1, 2}, {3, 4}}
	if got, err := SlowTimeFFT(context.Background(), rows, 0, nil, 1); got != nil || err != nil {
		t.Fatalf("zero bins: got (%v, %v), want (nil, nil)", got, err)
	}
}
