// Package poolcheck is the golden fixture for the poolcheck analyzer:
// positive cases for a leaked checkout, use-after-Put, double Put, and a
// goroutine capture; negative cases for every documented ownership
// transfer point (return, field store, call hand-off, channel send,
// deferred Put) plus the error-path exemption and an annotated deliberate
// leak. The FreeList cases check the comma-ok checkout of a
// parallel.FreeList used directly.
package poolcheck

import (
	"errors"

	"rfprotect/internal/parallel"
)

// Buf is the pooled buffer under test.
type Buf struct{ data []float64 }

// BufPool is a mutex-free fixture free list; the analyzer keys on the
// first-party Get method of a *Pool-named type.
type BufPool struct{ free []*Buf }

// Get checks a buffer out of the pool.
func (p *BufPool) Get() *Buf {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return &Buf{data: make([]float64, 8)}
}

// Put returns a buffer to the pool.
func (p *BufPool) Put(b *Buf) { p.free = append(p.free, b) }

var errFixture = errors.New("fixture")

// Leak checks a buffer out, touches it, and drops it on the floor.
func Leak(p *BufPool) {
	b := p.Get() // want `never returned`
	b.data[0] = 1
}

// LeakBothBranches drops the buffer no matter which branch runs. (A leak
// on only one branch merges to "maybe released" and stays quiet — the
// analyzer reports only certain leaks, by design.)
func LeakBothBranches(p *BufPool, cond bool) {
	b := p.Get() // want `never returned`
	if cond {
		b.data[0] = 1
	} else {
		b.data[1] = 2
	}
}

// UseAfterPut touches the buffer after it went back to the pool.
func UseAfterPut(p *BufPool) float64 {
	b := p.Get()
	p.Put(b)
	return b.data[0] // want `after it was returned`
}

// DoublePut returns the same buffer twice.
func DoublePut(p *BufPool) {
	b := p.Get()
	p.Put(b)
	p.Put(b) // want `returned to the pool twice`
}

// GoCapture leaks the buffer into a goroutine: the pool may hand it to
// another frame while the goroutine still writes it.
func GoCapture(p *BufPool, done chan struct{}) {
	b := p.Get()
	go func() {
		b.data[0] = 1 // want `captured by goroutine`
		close(done)
	}()
	p.Put(b)
}

// AllPaths is clean: both branches converge on the Put.
func AllPaths(p *BufPool, cond bool) {
	b := p.Get()
	if cond {
		b.data[0] = 1
	} else {
		b.data[1] = 2
	}
	p.Put(b)
}

// TransferReturn hands ownership to the caller.
func TransferReturn(p *BufPool) *Buf {
	b := p.Get()
	b.data[0] = 3
	return b
}

// FieldTransfer hands ownership to a longer-lived struct.
type holder struct{ buf *Buf }

func FieldTransfer(p *BufPool, h *holder) {
	b := p.Get()
	h.buf = b
}

// CallHandoff passes the buffer to another function, which owns it now.
func CallHandoff(p *BufPool) {
	b := p.Get()
	sink(b)
}

func sink(*Buf) {}

// SendTransfer hands ownership across a channel.
func SendTransfer(p *BufPool, ch chan *Buf) {
	b := p.Get()
	ch <- b
}

// DeferPut is the canonical acquire/release pairing.
func DeferPut(p *BufPool) {
	b := p.Get()
	defer p.Put(b)
	b.data[0] = 2
}

// ErrorPath may drop the buffer on the error return: the pipeline contract
// deliberately lets error-path buffers fall to the GC.
func ErrorPath(p *BufPool, bad bool) error {
	b := p.Get()
	if bad {
		return errFixture
	}
	p.Put(b)
	return nil
}

// LoopReuse checks out and returns once per iteration.
func LoopReuse(p *BufPool, n int) {
	for i := 0; i < n; i++ {
		b := p.Get()
		b.data[0] = float64(i)
		p.Put(b)
	}
}

// Allowed documents a deliberate leak with the escape hatch.
func Allowed(p *BufPool) {
	b := p.Get() //rfvet:allow poolcheck -- fixture: deliberate leak
	b.data[0] = 3
}

// FreeListLeak drops a FreeList checkout on the success path.
func FreeListLeak(l *parallel.FreeList[*Buf]) {
	b, ok := l.Get() // want `never returned`
	if !ok {
		b = &Buf{data: make([]float64, 8)}
	}
	b.data[0] = 1
}

// FreeListUseAfterPut touches a FreeList value after it went back.
func FreeListUseAfterPut(l *parallel.FreeList[*Buf]) float64 {
	b, ok := l.Get()
	if !ok {
		b = &Buf{data: make([]float64, 8)}
	}
	l.Put(b)
	return b.data[0] // want `after it was returned`
}

// FreeListEmptyReturn is clean: on the !ok path the list was empty, so
// returning a fresh value leaks nothing.
func FreeListEmptyReturn(l *parallel.FreeList[*Buf]) *Buf {
	b, ok := l.Get()
	if !ok {
		return &Buf{data: make([]float64, 8)}
	}
	b.data[0] = 0
	return b
}

// FreeListHit is clean: the checkout is returned where ok holds, and the
// fall-through path had nothing to return.
func FreeListHit(l *parallel.FreeList[*Buf]) *Buf {
	if b, ok := l.Get(); ok {
		return b
	}
	return &Buf{data: make([]float64, 8)}
}
