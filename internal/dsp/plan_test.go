package dsp

import (
	"context"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// randSignal seeds a fresh stream and reuses the suite's randComplex
// helper; naiveDFT (fft_test.go) is the plan-free reference the cached
// transforms are checked against.
func randSignal(n int, seed int64) []complex128 {
	return randComplex(rand.New(rand.NewSource(seed)), n)
}

// TestPlannedFFTMatchesUncachedReference checks the cached-plan transforms
// against a plan-free direct DFT for radix-2 and Bluestein sizes, both
// directions.
func TestPlannedFFTMatchesUncachedReference(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512, 3, 12, 100, 211} {
		x := randSignal(n, int64(n))
		for _, inverse := range []bool{false, true} {
			var got []complex128
			if inverse {
				got = IFFT(x)
			} else {
				got = FFT(x)
			}
			want := naiveDFT(x, inverse)
			for i := range got {
				if cmplx.Abs(got[i]-want[i]) > 1e-8*float64(n) {
					t.Fatalf("n=%d inverse=%v bin %d: %v vs %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanCacheHitIsBitIdentical verifies that the transform that builds
// the plan (first call for a size) and every cache-hit transform after it
// produce bit-identical output.
func TestPlanCacheHitIsBitIdentical(t *testing.T) {
	for _, n := range []int{128, 48} { // radix-2 and Bluestein
		x := randSignal(n, 7)
		first := FFT(x)
		for trial := 0; trial < 3; trial++ {
			again := FFT(x)
			for i := range again {
				if again[i] != first[i] {
					t.Fatalf("n=%d: cache-hit transform differs at bin %d", n, i)
				}
			}
		}
	}
}

// TestPlanCacheConcurrentFirstUse hammers a previously unseen size from
// many goroutines so the build-outside-lock path runs under -race, and
// checks every goroutine got the same answer.
func TestPlanCacheConcurrentFirstUse(t *testing.T) {
	const n = 1536 // non-power-of-two: exercises the bluestein plan too
	x := randSignal(n, 9)
	want := naiveDFT(x, false)
	var wg sync.WaitGroup
	errc := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := FFT(x)
			for i := range got {
				if cmplx.Abs(got[i]-want[i]) > 1e-7*float64(n) {
					errc <- "concurrent FFT diverged from reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if msg, ok := <-errc; ok {
		t.Fatal(msg)
	}
}

// TestFFTEachMatchesSequential checks the batch helpers against row-by-row
// transforms for every worker count, including mixed row lengths.
func TestFFTEachMatchesSequential(t *testing.T) {
	lengths := []int{512, 512, 100, 64, 12, 1, 0}
	mkBatch := func() [][]complex128 {
		batch := make([][]complex128, len(lengths))
		for i, n := range lengths {
			batch[i] = randSignal(n, int64(100+i))
		}
		return batch
	}
	ref := mkBatch()
	for _, row := range ref {
		FFTInPlace(row)
	}
	for _, workers := range []int{1, 2, 8} {
		batch := mkBatch()
		if err := FFTEachCtx(context.Background(), batch, workers); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			for j := range batch[i] {
				if batch[i][j] != ref[i][j] {
					t.Fatalf("workers=%d row %d bin %d differs", workers, i, j)
				}
			}
		}
	}
	// Round trip through row-wise inverse transforms.
	batch := mkBatch()
	if err := FFTEachCtx(context.Background(), batch, 4); err != nil {
		t.Fatal(err)
	}
	for _, row := range batch {
		IFFTInPlace(row)
	}
	orig := mkBatch()
	for i := range batch {
		for j := range batch[i] {
			if cmplx.Abs(batch[i][j]-orig[i][j]) > 1e-9 {
				t.Fatalf("round trip row %d bin %d: %v vs %v", i, j, batch[i][j], orig[i][j])
			}
		}
	}
}

// TestParallelMapAppliesKernelToEveryRow uses a non-FFT kernel to pin the
// generic contract.
func TestParallelMapAppliesKernelToEveryRow(t *testing.T) {
	batch := make([][]complex128, 37)
	for i := range batch {
		batch[i] = []complex128{complex(float64(i), 0)}
	}
	if err := ParallelMapCtx(context.Background(), batch, 4, func(row []complex128) { row[0] *= 2 }); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if batch[i][0] != complex(2*float64(i), 0) {
			t.Fatalf("row %d not transformed exactly once", i)
		}
	}
}

func BenchmarkFFT512Cached(b *testing.B) {
	x := randSignal(512, 1)
	buf := make([]complex128, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		FFTInPlace(buf)
	}
}

func BenchmarkFFTBluestein100Cached(b *testing.B) {
	x := randSignal(100, 1)
	buf := make([]complex128, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		FFTInPlace(buf)
	}
}

func benchBatch(rows, n int) [][]complex128 {
	batch := make([][]complex128, rows)
	for i := range batch {
		batch[i] = randSignal(n, int64(i))
	}
	return batch
}

func BenchmarkFFTEachSequential(b *testing.B) {
	batch := benchBatch(64, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FFTEachCtx(context.Background(), batch, 1)
	}
}

func BenchmarkFFTEachParallel(b *testing.B) {
	batch := benchBatch(64, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FFTEachCtx(context.Background(), batch, 0)
	}
}
