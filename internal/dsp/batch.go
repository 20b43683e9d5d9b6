package dsp

import (
	"context"

	"rfprotect/internal/parallel"
)

// ParallelMapCtx applies transform to every row of batch across a worker
// pool (workers <= 0 means one per available CPU). Rows are independent:
// each worker touches only its own row, so the result is identical for any
// worker count, and with one worker the batch runs inline. It is the
// batch-processing primitive behind FFTEachCtx and is exported for callers
// with their own per-row kernels (windowing, beamforming rows, per-antenna
// pipelines). Rows stop being claimed once ctx is done and the call returns
// ctx.Err(); rows already transformed stay transformed, so on cancellation
// the caller must discard the batch.
func ParallelMapCtx(ctx context.Context, batch [][]complex128, workers int, transform func([]complex128)) error {
	return parallel.ForEachCtx(ctx, len(batch), workers, func(i int) { transform(batch[i]) })
}

// FFTEachCtx transforms every row of batch in place, concurrently. Rows may
// have different lengths; each length's plan is built once and shared.
// Cancellation follows ParallelMapCtx, including its partial-transform
// caveat.
func FFTEachCtx(ctx context.Context, batch [][]complex128, workers int) error {
	warmPlans(batch)
	return ParallelMapCtx(ctx, batch, workers, FFTInPlace)
}

// SlowTimeFFT computes the slow-time (cross-row) FFT of a burst of spectra:
// rows[k] is the fast-time spectrum of chirp k, and the result's cols[r] is
// the windowed FFT across chirps of range bin r, for r in [0, bins). This is
// the second half of range–Doppler processing — rows come out of
// FFTEachCtx, columns go in here — factored out so every Doppler consumer
// shares the cached plans and the per-bin fan-out.
//
// Each output column is an independent work item writing only its own slice,
// so the result is bit-identical for any worker count (workers <= 0 means
// one per available CPU). win is applied along slow time before the
// transform; a nil win means rectangular. Once ctx is done the fan-out
// stops and the partially filled result is discarded with ctx.Err().
func SlowTimeFFT(ctx context.Context, rows [][]complex128, bins int, win []float64, workers int) ([][]complex128, error) {
	nd := len(rows)
	if nd == 0 || bins <= 0 {
		return nil, nil
	}
	if IsPowerOfTwo(nd) {
		planFor(nd)
	} else if nd > 1 {
		bluesteinPlanFor(nd)
	}
	cols := make([][]complex128, bins)
	backing := make([]complex128, bins*nd)
	for r := range cols {
		cols[r], backing = backing[:nd], backing[nd:]
	}
	err := parallel.ForEachCtx(ctx, bins, workers, func(r int) {
		col := cols[r]
		for k := 0; k < nd; k++ {
			if win != nil {
				col[k] = rows[k][r] * complex(win[k], 0)
			} else {
				col[k] = rows[k][r]
			}
		}
		FFTInPlace(col)
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// warmPlans builds the FFT plan for every distinct row length up front so
// concurrent workers hit the cache instead of racing to build duplicate
// plans (safe either way, but wasted work).
func warmPlans(batch [][]complex128) {
	seen := map[int]bool{}
	for _, row := range batch {
		n := len(row)
		if n <= 1 || seen[n] {
			continue
		}
		seen[n] = true
		if IsPowerOfTwo(n) {
			planFor(n)
		} else {
			bluesteinPlanFor(n)
		}
	}
}
