package parallel

import "sync"

// Cache is a build-once map from a shape key to a shared value (a compiled
// plan), ready to use at its zero value. It is the one plan-sharing policy
// of the repo: the FFT plans in dsp, fmcw.PlanSynth and radar.PlanFrontEnd
// are Caches.
type Cache[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// Get returns the value stored for k, calling build(k) to make it on first
// use. build runs outside the lock, so it may itself Get from other caches
// (a Bluestein FFT plan builds radix-2 plans). Concurrent first uses may
// each build; the first value stored wins and every caller receives it.
//
// build takes the key rather than capturing it so callers can pass a plain
// function: a capturing closure handed to a generic method inlined into
// another package is heap-allocated on every call, which would break the
// zero-allocation steady state of the plan lookups.
func (c *Cache[K, V]) Get(k K, build func(K) V) V {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v
	}
	v = build(k)
	c.mu.Lock()
	if w, ok := c.m[k]; ok {
		v = w
	} else {
		if c.m == nil {
			c.m = make(map[K]V)
		}
		c.m[k] = v
	}
	c.mu.Unlock()
	return v
}
