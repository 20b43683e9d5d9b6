package pipeline

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"rfprotect/internal/fmcw"
)

// TestPacedSourceRate checks that a paced stream takes at least
// (n-1)/frameRate of wall clock and that an unpaced wrapper passes through.
func TestPacedSourceRate(t *testing.T) {
	mk := func() []*fmcw.Frame {
		p := fmcw.DefaultParams()
		return []*fmcw.Frame{fmcw.NewFrame(p, 0), fmcw.NewFrame(p, 1), fmcw.NewFrame(p, 2), fmcw.NewFrame(p, 3)}
	}
	const rate = 200.0 // 5 ms per frame
	src := NewPaced(FromFrames(mk()), rate)
	start := time.Now()
	n := 0
	for {
		_, err := src.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("paced source emitted %d frames, want 4", n)
	}
	if min := 3 * time.Second / 200; time.Since(start) < min {
		t.Fatalf("4 frames at %v Hz took %v, want >= %v", rate, time.Since(start), min)
	}
	// frameRate <= 0 disables pacing entirely.
	fast := NewPaced(FromFrames(mk()), 0)
	start = time.Now()
	for i := 0; i < 4; i++ {
		if _, err := fast.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) > time.Second {
		t.Fatal("unpaced source should not wait")
	}
}

// TestPacedSourceCancelDuringWait interrupts the inter-frame wait.
func TestPacedSourceCancelDuringWait(t *testing.T) {
	p := fmcw.DefaultParams()
	src := NewPaced(FromFrames([]*fmcw.Frame{fmcw.NewFrame(p, 0), fmcw.NewFrame(p, 1)}), 0.5) // 2 s interval
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := src.Next(ctx); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := src.Next(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Next = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not interrupt the pacing wait")
	}
}
