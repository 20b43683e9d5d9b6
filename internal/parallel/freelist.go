package parallel

import "sync"

// FreeList is a mutex-guarded LIFO of recycled values, ready to use at its
// zero value. It is the one buffer-recycling policy of the repo: every pool
// and every plan's executor list is a FreeList.
//
// It is deliberately not a sync.Pool. The GC never empties a FreeList, so
// a warmed-up steady state allocates exactly nothing — also under -race,
// where sync.Pool drops items on purpose — and the allocation-regression
// tests can assert an exact zero allocs/op. The price is that parked
// values live until the list does; lists are bounded by the number of
// values ever in flight at once.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get pops the most recently Put value, clearing its slot so the list pins
// nothing it handed out. ok is false when the list is empty; the caller
// then builds a fresh value.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v, ok = l.free[n-1], true
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return v, ok
}

// Put parks v for a later Get. The caller must not use v afterwards.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// Len reports how many values are parked.
func (l *FreeList[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
