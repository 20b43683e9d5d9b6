package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// rowSummary computes the summary FindRows prunes with, by its definition:
// rowMax[r] is the fold m = 0; if v > m { m = v } over row r, and rowNaN[r]
// reports a NaN in row r.
func rowSummary(g []float64, rows, cols int) ([]float64, []bool) {
	rowMax := make([]float64, rows)
	rowNaN := make([]bool, rows)
	for r := 0; r < rows; r++ {
		for _, v := range g[r*cols : (r+1)*cols] {
			if v > rowMax[r] {
				rowMax[r] = v
			}
			if math.IsNaN(v) {
				rowNaN[r] = true
			}
		}
	}
	return rowMax, rowNaN
}

// checkSamePeaks fails unless got and want hold the same peaks bit for bit
// (NaN values included) in the same order.
func checkSamePeaks(t *testing.T, name string, got, want []Peak2D) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d peaks, want %d (%v vs %v)", name, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Row != w.Row || g.Col != w.Col || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: peak %d = %+v, want %+v", name, i, g, w)
		}
	}
}

// TestFindRowsMatchesFind is the pruned finder's property test: on random
// grids salted with NaN, ±Inf and negative cells, at thresholds on both
// sides of zero (a threshold ≤ 0 prunes nothing, since every row maximum is
// at least 0), FindRows with the grid's row summary returns exactly Find's
// peaks. It also holds with a looser summary whose maxima overstate the
// rows, which must only prune less.
func TestFindRowsMatchesFind(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0}
	var full, pruned Peak2DFinder
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.Intn(14), 1+rng.Intn(14)
		g := make([]float64, rows*cols)
		// Sparse rows with a few strong cells, like a range–angle map.
		for i := range g {
			g[i] = 0.1 * rng.Float64()
			if rng.Intn(12) == 0 {
				g[i] = rng.Float64()
			}
			if rng.Intn(30) == 0 {
				g[i] = special[rng.Intn(len(special))]
			}
		}
		minVal := []float64{-0.5, 0, 0.05, 0.3 + 0.6*rng.Float64(), math.Inf(1), math.NaN()}[rng.Intn(6)]
		minDist := rng.Intn(4)
		rowMax, rowNaN := rowSummary(g, rows, cols)
		want := full.Find(g, rows, cols, minVal, minDist)
		checkSamePeaks(t, "exact summary", pruned.FindRows(g, rows, cols, rowMax, rowNaN, minVal, minDist), want)
		for r := range rowMax {
			rowMax[r] += rng.Float64()
		}
		checkSamePeaks(t, "loose summary", pruned.FindRows(g, rows, cols, rowMax, rowNaN, minVal, minDist), want)
	}
}

// TestFindRowsSkipsRows pins that pruning happens: a row the summary rules
// out is never scanned, so a peak planted there behind a false summary is
// not found, while the rows around it still serve as neighbours.
func TestFindRowsSkipsRows(t *testing.T) {
	g := []float64{
		0, 0, 0,
		0, 5, 0,
		0, 0, 0,
		0, 4, 0,
	}
	rowMax := []float64{0, 0, 0, 4}
	rowNaN := make([]bool, 4)
	var f Peak2DFinder
	got := f.FindRows(g, 4, 3, rowMax, rowNaN, 1, 1)
	checkSamePeaks(t, "pruned", got, []Peak2D{{Row: 3, Col: 1, Value: 4}})
	rowNaN[1] = true // a NaN flag forces the row to be scanned
	got = f.FindRows(g, 4, 3, rowMax, rowNaN, 1, 1)
	checkSamePeaks(t, "flagged", got, []Peak2D{{Row: 1, Col: 1, Value: 5}, {Row: 3, Col: 1, Value: 4}})
}

// FuzzPeakRows explores the pruned finder against the full one as its
// oracle. The input decodes to grid dimensions, a threshold, a separation
// and cell values; each cell byte either picks a special value (NaN, ±Inf,
// ±0, a negative) or reads the next eight bytes as a raw float64.
func FuzzPeakRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{4, 2, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	cell := make([]byte, 9)
	cell[0] = 0xff
	binary.LittleEndian.PutUint64(cell[1:], math.Float64bits(0.7))
	f.Add(append([]byte{5, 5, 3, 2}, cell...))

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		value := func() float64 {
			switch b := next(); b % 8 {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			case 3:
				return math.Copysign(0, -1)
			case 4:
				return -float64(b)
			case 5, 6:
				return float64(b) / 255
			default:
				if len(data) < 8 {
					return 0
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
		}
		rows, cols := 1+int(next()%16), 1+int(next()%16)
		minVal := value()
		minDist := int(next() % 5)
		g := make([]float64, rows*cols)
		for i := range g {
			g[i] = value()
		}
		rowMax, rowNaN := rowSummary(g, rows, cols)
		var full, pruned Peak2DFinder
		want := full.Find(g, rows, cols, minVal, minDist)
		checkSamePeaks(t, "fuzz", pruned.FindRows(g, rows, cols, rowMax, rowNaN, minVal, minDist), want)
	})
}

// TestPeak2DFinderMatchesFindPeaks2D checks the reusable finder returns the
// exact result of the allocating function across reuses of one finder.
func TestPeak2DFinderMatchesFindPeaks2D(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var f Peak2DFinder
	for trial := 0; trial < 20; trial++ {
		rows, cols := 4+rng.Intn(12), 4+rng.Intn(12)
		g := make([]float64, rows*cols)
		for i := range g {
			g[i] = rng.Float64()
		}
		minVal := 0.3 + 0.4*rng.Float64()
		minDist := 1 + rng.Intn(3)
		want := FindPeaks2D(g, rows, cols, minVal, minDist)
		got := f.Find(g, rows, cols, minVal, minDist)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d peaks, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d peak %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
	g := make([]float64, 16*16)
	for i := range g {
		g[i] = float64((i*2654435761)%97) / 97
	}
	f.Find(g, 16, 16, 0.5, 2) // warm the scratch
	if a := testing.AllocsPerRun(50, func() { f.Find(g, 16, 16, 0.5, 2) }); a != 0 {
		t.Fatalf("Peak2DFinder.Find: %v allocs/op, want 0", a)
	}
}
