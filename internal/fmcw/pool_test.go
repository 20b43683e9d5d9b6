package fmcw

import (
	"context"
	"math/rand"
	"testing"
)

// testParams keeps pool tests fast: 4 antennas, 64 samples.
func testParams() Params {
	p := DefaultParams()
	p.SampleRate = 128e3 // 64 samples per 500 µs chirp
	p.NumAntennas = 4
	return p
}

func testReturns(n int, seed int64) []Return {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Return, n)
	for i := range out {
		out[i] = Return{
			Delay:     2 * (1 + 10*rng.Float64()) / C,
			Amplitude: 0.05 + rng.Float64(),
			AoA:       rng.Float64() * 3.1,
			FreqShift: float64(i%3) * 20e3,
			Phase:     rng.Float64(),
		}
	}
	return out
}

func framesEqual(a, b *Frame) bool {
	if !a.SameShape(b) || a.Time != b.Time {
		return false
	}
	for k := range a.Data {
		for i := range a.Data[k] {
			if a.Data[k][i] != b.Data[k][i] {
				return false
			}
		}
	}
	return true
}

// Regression for the row-aliasing bug: NewFrame's rows used to share one
// backing array at full capacity, so append(Data[k], ...) silently
// overwrote Data[k+1][0]. Three-index slicing caps each row at its length,
// forcing append to copy out.
func TestNewFrameRowsAppendSafe(t *testing.T) {
	f := NewFrame(testParams(), 0)
	for k, row := range f.Data {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d != len %d — append would clobber the next row", k, cap(row), len(row))
		}
	}
	next := f.Data[1][0]
	_ = append(f.Data[0], complex(42, 42))
	if f.Data[1][0] != next {
		t.Fatalf("append to Data[0] overwrote Data[1][0]: %v", f.Data[1][0])
	}
}

func TestFramePoolGetPut(t *testing.T) {
	p := testParams()
	fp := NewFramePool(p)
	f := fp.Get(1.5)
	if f.Time != 1.5 || f.Params != p {
		t.Fatalf("Get: Time=%v Params=%+v", f.Time, f.Params)
	}
	f.Data[2][3] = complex(1, 1)
	fp.Put(f)
	if fp.Len() != 1 {
		t.Fatalf("Len = %d, want 1", fp.Len())
	}
	g := fp.Get(2.5)
	if g != f {
		t.Fatal("Get did not reuse the recycled frame")
	}
	if g.Time != 2.5 {
		t.Fatalf("reused frame Time = %v, want 2.5", g.Time)
	}
	for k, row := range g.Data {
		for i, v := range row {
			if v != 0 {
				t.Fatalf("reused frame not zeroed at [%d][%d]: %v", k, i, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a mismatched frame did not panic")
		}
	}()
	other := p
	other.NumAntennas = 2
	fp.Put(NewFrame(other, 0))
}

// SynthesizeInto on a pooled frame must produce exactly the bits it
// produces on a fresh frame, for every worker count, including the pooled
// per-antenna noise streams.
func TestSynthesizeIntoBitIdentical(t *testing.T) {
	p := testParams()
	p.NoiseStd = 0.05
	returns := testReturns(8, 3)
	fp := NewFramePool(p)
	for _, workers := range []int{1, 2, 3, 0} {
		want := synthFrame(p, returns, 0.25, rand.New(rand.NewSource(9)), workers)
		dst := fp.Get(0.25)
		if err := PlanSynth(p).SynthesizeInto(context.Background(), dst, returns, rand.New(rand.NewSource(9)), workers); err != nil {
			t.Fatal(err)
		}
		if !framesEqual(dst, want) {
			t.Fatalf("workers=%d: pooled frame differs from fresh frame", workers)
		}
		fp.Put(dst)
	}
}

func TestSubIntoMatchesSub(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(1))
	f := synthFrame(p, testReturns(4, 1), 0.1, rng, 0)
	g := synthFrame(p, testReturns(4, 2), 0.1, rng, 0)
	want := f.Sub(g)
	dst := NewFrame(p, 99)
	f.SubInto(dst, g)
	if !framesEqual(dst, want) {
		t.Fatal("SubInto differs from Sub")
	}
	// Aliased destination: dst == f.
	f.SubInto(f, g)
	if !framesEqual(f, want) {
		t.Fatal("SubInto(f, g) into f differs from Sub")
	}
}

// A pooled differencer must emit exactly the difference frames a plain one
// does, and neither may retain the caller's frame: mutating an input after
// Step must not change later outputs.
func TestDifferencerPooledBitIdentical(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(5))
	const n = 6
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = synthFrame(p, testReturns(5, int64(i)), float64(i)/p.FrameRate, rng, 0)
	}
	var plain Differencer
	var pooled Differencer
	fp := NewFramePool(p)
	pooled.UsePool(fp)
	for i, f := range frames {
		want, okW := plain.Step(f)
		cp := NewFrame(p, f.Time)
		cp.CopyFrom(f)
		got, okG := pooled.Step(cp)
		// The differencer must read its input only during Step.
		cp.Data[0][0] = complex(1e9, 1e9)
		if okW != okG {
			t.Fatalf("frame %d: ok mismatch %v vs %v", i, okW, okG)
		}
		if okW && !framesEqual(got, want) {
			t.Fatalf("frame %d: pooled diff differs from plain", i)
		}
		if okG {
			fp.Put(got)
		}
	}
	// After warm-up the pooled differencer allocates nothing per step.
	a, b := frames[0], frames[1]
	pooled.Step(a)
	if allocs := testing.AllocsPerRun(100, func() {
		if d, ok := pooled.Step(b); ok {
			fp.Put(d)
		}
		a, b = b, a
	}); allocs != 0 {
		t.Fatalf("pooled Differencer.Step allocates %v per op in steady state, want 0", allocs)
	}
}
