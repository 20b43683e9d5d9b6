package radar

import "rfprotect/internal/parallel"

// ProfilePool and DopplerPool recycle profile and range–Doppler map
// destinations for the Into kernels, completing the zero-allocation
// steady-state loop: a streaming consumer Gets a destination, fills it with
// RangeAngleInto / RangeDopplerInto (which reuse the Power backing's
// capacity), and Puts it back once downstream stages are done reading it.
// Each is a parallel.FreeList.
//
// Unlike fmcw.FramePool the recycled objects are NOT zeroed or shape-checked:
// the Into kernels restamp every field and overwrite (or reallocate) Power,
// so stale contents are harmless and differently-shaped leftovers simply
// get their backing replaced. See DESIGN.md "Buffer ownership & pooling".
//
// Both Gets are noinline so their warm-up allocation stays out of the
// escape diagnostics of the //rfvet:allocfree stages that call them.

// ProfilePool is a free list of range–angle profiles.
type ProfilePool struct {
	free parallel.FreeList[*Profile]
}

// NewProfilePool returns an empty pool.
func NewProfilePool() *ProfilePool { return &ProfilePool{} }

// Get returns a profile with unspecified contents, to be filled by
// RangeAngleInto.
//
//go:noinline
func (pp *ProfilePool) Get() *Profile {
	p, ok := pp.free.Get()
	if !ok {
		p = &Profile{}
	}
	return p
}

// Put recycles a profile. The caller must not use it after Put; Put(nil) is
// a no-op.
func (pp *ProfilePool) Put(p *Profile) {
	if p != nil {
		pp.free.Put(p)
	}
}

// Len reports how many profiles are currently parked in the pool.
func (pp *ProfilePool) Len() int { return pp.free.Len() }

// DopplerPool is a free list of range–Doppler maps.
type DopplerPool struct {
	free parallel.FreeList[*RangeDopplerMap]
}

// NewDopplerPool returns an empty pool.
func NewDopplerPool() *DopplerPool { return &DopplerPool{} }

// Get returns a map with unspecified contents, to be filled by
// RangeDopplerInto.
//
//go:noinline
func (dp *DopplerPool) Get() *RangeDopplerMap {
	m, ok := dp.free.Get()
	if !ok {
		m = &RangeDopplerMap{}
	}
	return m
}

// Put recycles a map. The caller must not use it after Put; Put(nil) is a
// no-op.
func (dp *DopplerPool) Put(m *RangeDopplerMap) {
	if m != nil {
		dp.free.Put(m)
	}
}

// Len reports how many maps are currently parked in the pool.
func (dp *DopplerPool) Len() int { return dp.free.Len() }
