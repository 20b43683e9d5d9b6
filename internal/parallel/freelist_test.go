package parallel

import (
	"sync"
	"testing"
	"time"
)

func TestFreeListLIFO(t *testing.T) {
	var l FreeList[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported a value")
	}
	for i := 1; i <= 3; i++ {
		l.Put(i)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	for want := 3; want >= 1; want-- {
		got, ok := l.Get()
		if !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if _, ok := l.Get(); ok || l.Len() != 0 {
		t.Fatal("list not empty after draining it")
	}
}

// TestFreeListGetClearsSlot: a popped slot must not keep the value alive in
// the backing array.
func TestFreeListGetClearsSlot(t *testing.T) {
	var l FreeList[*int]
	l.Put(new(int))
	if _, ok := l.Get(); !ok {
		t.Fatal("Get missed the parked value")
	}
	if l.free[:1][0] != nil {
		t.Fatal("Get left the popped value in the backing array")
	}
}

// TestFreeListZeroAllocs is the contract every pool in the repo rests on: a
// warmed-up Get/Put cycle allocates nothing.
func TestFreeListZeroAllocs(t *testing.T) {
	var l FreeList[*[64]float64]
	l.Put(new([64]float64))
	allocs := testing.AllocsPerRun(1000, func() {
		v, ok := l.Get()
		if !ok {
			v = new([64]float64)
		}
		v[0]++
		l.Put(v)
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Put allocates %v per run, want exactly 0", allocs)
	}
}

// TestFreeListConcurrent hammers one list from several goroutines (run
// under -race): every value put in is checked out by exactly one Get, and
// none is lost.
func TestFreeListConcurrent(t *testing.T) {
	const workers, per = 4, 500
	var l FreeList[int]
	for i := 0; i < workers*per; i++ {
		l.Put(i)
	}
	seen := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Interleave returns and checkouts: what goes back is taken
				// again, so only the final checkouts are recorded.
				v, ok := l.Get()
				if !ok {
					t.Error("list ran dry with values outstanding")
					return
				}
				l.Put(v)
				v, ok = l.Get()
				if !ok {
					t.Error("list ran dry with values outstanding")
					return
				}
				seen[w] = append(seen[w], v)
			}
		}(w)
	}
	wg.Wait()
	got := make([]bool, workers*per)
	for _, vs := range seen {
		for _, v := range vs {
			if got[v] {
				t.Fatalf("value %d checked out twice", v)
			}
			got[v] = true
		}
	}
	for v, ok := range got {
		if !ok {
			t.Fatalf("value %d lost", v)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("%d values left over", l.Len())
	}
}

func TestCacheOneValuePerKey(t *testing.T) {
	var c Cache[int, *int]
	builds := 0
	build := func(k int) *int { builds++; return &k }
	a := c.Get(1, build)
	if c.Get(1, build) != a {
		t.Fatal("second Get rebuilt the value")
	}
	b := c.Get(2, build)
	if b == a || *a != 1 || *b != 2 {
		t.Fatal("different keys must get their own values")
	}
	if builds != 2 {
		t.Fatalf("%d builds, want 2", builds)
	}
}

// TestCacheNestedBuild: a build may Get from another cache (a Bluestein FFT
// plan builds radix-2 plans), or from its own for another key, without
// deadlocking, because builds run outside the lock.
func TestCacheNestedBuild(t *testing.T) {
	var inner Cache[int, int]
	var outer Cache[int, int]
	done := make(chan int)
	go func() {
		done <- outer.Get(1, func(k int) int {
			return inner.Get(20, func(k int) int { return k }) + outer.Get(k+2, func(k int) int { return k })
		})
	}()
	select {
	case v := <-done:
		if v != 23 {
			t.Fatalf("nested build = %d, want 23", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested build deadlocked")
	}
}

// TestCacheConcurrentFirstUse: callers racing on a key's first use may each
// build, but all of them receive the one value stored.
func TestCacheConcurrentFirstUse(t *testing.T) {
	const callers = 8
	var c Cache[string, *int]
	got := make([]*int, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = c.Get("shape", func(string) *int { v := i; return &v })
		}(i)
	}
	close(start)
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got a different value than caller 0", i)
		}
	}
}
