// Package seedsplit is the golden fixture for the seedsplit analyzer:
// positive cases for the global math/rand source, ad-hoc seed arithmetic,
// and unsplit worker closures; negative cases for SplitSeed-derived
// streams, fixed literal seeds, and an annotated deliberate bypass.
package seedsplit

import (
	"context"
	"math/rand"
	"sync"

	"rfprotect/internal/parallel"
)

// globalSource draws from the shared process-wide stream.
func globalSource() int {
	return rand.Intn(10) // want `global math/rand source`
}

// arithmetic derives a stream with a hand-picked offset.
func arithmetic(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + 1)) // want `ad-hoc seed arithmetic`
}

// workers constructs a source in a goroutine closure without splitting:
// both goroutines own the same stream.
func workers(seed int64) int64 {
	var wg sync.WaitGroup
	var sum [2]int64
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			sum[i] = rand.New(rand.NewSource(seed)).Int63() // want `worker closure`
		}()
	}
	wg.Wait()
	return sum[0] + sum[1]
}

// split is the blessed form: each unit keys its stream on (base, i).
func split(ctx context.Context, seed int64, n int) error {
	return parallel.ForEachCtx(ctx, n, 0, func(i int) {
		_ = rand.New(rand.NewSource(parallel.SplitSeed(seed, i)))
	})
}

// splitFamily namespaces a stream family; arithmetic inside the SplitSeed
// argument list is legal.
func splitFamily(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(parallel.SplitSeed(seed+200, i)))
}

// fixed literal seeds outside worker closures are fine.
func fixed() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

// allowed documents a deliberate offset with the escape hatch.
func allowed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + 7)) //rfvet:allow seedsplit -- fixture: deliberate offset
}
