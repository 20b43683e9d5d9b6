package fmcw

import "rfprotect/internal/parallel"

// FramePool recycles equally-shaped frames so the steady state of a
// streaming pipeline synthesizes, subtracts, and processes millions of
// frames without allocating a single new one. It is a parallel.FreeList
// that zeroes and shape-checks frames on the way in.
//
// Ownership contract: Get hands the caller exclusive ownership of a zeroed
// frame; Put takes it back. A frame must not be used after Put — the pool
// will hand the same storage to the next Get. Put accepts any frame of the
// pool's shape (it panics on mismatch), so frames that began life outside
// the pool may retire into it. See DESIGN.md "Buffer ownership & pooling"
// for how the streaming pipeline threads this contract through its stages.
type FramePool struct {
	params Params
	free   parallel.FreeList[*Frame]
}

// NewFramePool returns an empty pool producing frames with the given
// parameters.
func NewFramePool(p Params) *FramePool {
	return &FramePool{params: p}
}

// Params returns the frame configuration this pool produces.
func (fp *FramePool) Params() Params { return fp.params }

// Get returns a zeroed frame stamped with the pool's Params and the given
// capture time, reusing a recycled frame when one is available and
// allocating otherwise (warm-up, or more frames in flight than ever
// before).
func (fp *FramePool) Get(at float64) *Frame {
	f, ok := fp.free.Get()
	if !ok {
		return NewFrame(fp.params, at)
	}
	f.Params = fp.params
	f.Time = at
	return f
}

// Fits reports whether f is non-nil and has the shape of the pool's frames:
// NumAntennas rows of SamplesPerChirp samples each.
func (fp *FramePool) Fits(f *Frame) bool {
	if f == nil || len(f.Data) != fp.params.NumAntennas {
		return false
	}
	n := fp.params.SamplesPerChirp()
	for _, row := range f.Data {
		if len(row) != n {
			return false
		}
	}
	return true
}

// Put recycles a frame into the pool, zeroing it first so the next Get
// honors Get's zeroed-frame contract. Put(nil) is a no-op; a frame that
// does not fit the pool panics (recycling it would hand a wrong-size frame
// to a later Get).
func (fp *FramePool) Put(f *Frame) {
	if f == nil {
		return
	}
	if !fp.Fits(f) {
		panic("fmcw: FramePool.Put with mismatched frame shape")
	}
	f.Reset()
	fp.free.Put(f)
}

// Len reports how many frames are currently parked in the pool.
func (fp *FramePool) Len() int { return fp.free.Len() }
