package dsp

import "sort"

// Peak is a detected local maximum in a 1-D series.
type Peak struct {
	Index int     // sample index of the maximum
	Value float64 // value at the maximum
}

// FindPeaks returns local maxima of x whose value is at least minValue and
// that are separated from any larger already-accepted peak by at least
// minDistance samples. Peaks are returned sorted by descending value.
// Plateau maxima report their first index.
func FindPeaks(x []float64, minValue float64, minDistance int) []Peak {
	if minDistance < 1 {
		minDistance = 1
	}
	var cands []Peak
	n := len(x)
	for i := 0; i < n; i++ {
		v := x[i]
		if v < minValue {
			continue
		}
		// Require a strict rise into the peak; for plateaus this keeps only
		// the first index.
		if i > 0 && x[i-1] >= v {
			continue
		}
		if i+1 < n && x[i+1] > v {
			continue
		}
		cands = append(cands, Peak{Index: i, Value: v})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Value != cands[b].Value {
			return cands[a].Value > cands[b].Value
		}
		return cands[a].Index < cands[b].Index
	})
	var out []Peak
	for _, c := range cands {
		ok := true
		for _, p := range out {
			d := c.Index - p.Index
			if d < 0 {
				d = -d
			}
			if d < minDistance {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// Peak2D is a detected local maximum in a 2-D grid.
type Peak2D struct {
	Row, Col int
	Value    float64
}

// FindPeaks2D returns local maxima of the rows×cols grid g (row-major) with
// value >= minValue, enforcing a Chebyshev separation of minDistance cells
// against larger accepted peaks. A cell is a local maximum if no 8-neighbor
// exceeds it. It is the allocating convenience over Peak2DFinder.Find.
func FindPeaks2D(g []float64, rows, cols int, minValue float64, minDistance int) []Peak2D {
	var f Peak2DFinder
	return f.Find(g, rows, cols, minValue, minDistance)
}

// Peak2DFinder is reusable scratch for 2-D peak extraction: candidate and
// output buffers survive between Find calls, so a warmed-up finder performs
// no allocations. The zero value is ready to use. A finder is not safe for
// concurrent use; give each goroutine its own.
type Peak2DFinder struct {
	cands []Peak2D
	out   []Peak2D
}

// Peak2DFinder sorts its candidate buffer through sort.Interface on the
// finder pointer itself — the interface conversion of a pointer does not
// allocate, unlike boxing a slice or a sort.Slice closure. The comparator
// (value desc, then row asc, then col asc) is a total order over distinct
// grid cells, so the sorted order — and therefore Find's result — is unique
// and identical to what FindPeaks2D has always returned.

func (f *Peak2DFinder) Len() int      { return len(f.cands) }
func (f *Peak2DFinder) Swap(i, j int) { f.cands[i], f.cands[j] = f.cands[j], f.cands[i] }
func (f *Peak2DFinder) Less(i, j int) bool {
	a, b := &f.cands[i], &f.cands[j]
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}

// Find runs the FindPeaks2D extraction using the finder's scratch. The
// returned slice aliases the finder and is valid until the next Find call;
// callers that keep peaks across calls must copy them out.
func (f *Peak2DFinder) Find(g []float64, rows, cols int, minValue float64, minDistance int) []Peak2D {
	return f.FindRows(g, rows, cols, nil, nil, minValue, minDistance)
}

// FindRows is Find with a per-row summary of g that lets it skip the rows
// that cannot hold a candidate: rowMax[r] must be at least every non-NaN
// cell of row r, and rowNaN[r] must be set when row r holds a NaN. Row r is
// skipped when rowMax[r] < minValue and it holds no NaN — then every cell
// fails the candidate test v >= minValue, and a NaN cell (which the test
// keeps: NaN < minValue is false) cannot hide there. Skipped rows are still
// read as neighbours of the rows around them, and candidates are collected
// in the same row-major order, so the result is exactly Find's. nil
// summaries scan every row.
func (f *Peak2DFinder) FindRows(g []float64, rows, cols int, rowMax []float64, rowNaN []bool, minValue float64, minDistance int) []Peak2D {
	if minDistance < 1 {
		minDistance = 1
	}
	cands := f.cands[:0]
	for r := 0; r < rows; r++ {
		if rowMax != nil && rowMax[r] < minValue && !rowNaN[r] {
			continue
		}
		for c := 0; c < cols; c++ {
			v := g[r*cols+c]
			if v < minValue {
				continue
			}
			isMax := true
			for dr := -1; dr <= 1 && isMax; dr++ {
				for dc := -1; dc <= 1; dc++ {
					if dr == 0 && dc == 0 {
						continue
					}
					nr, nc := r+dr, c+dc
					if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
						continue
					}
					if g[nr*cols+nc] > v {
						isMax = false
						break
					}
				}
			}
			if isMax {
				cands = append(cands, Peak2D{Row: r, Col: c, Value: v})
			}
		}
	}
	f.cands = cands
	sort.Sort(f)
	out := f.out[:0]
	for _, cd := range f.cands {
		ok := true
		for _, p := range out {
			dr := cd.Row - p.Row
			if dr < 0 {
				dr = -dr
			}
			dc := cd.Col - p.Col
			if dc < 0 {
				dc = -dc
			}
			cheb := dr
			if dc > cheb {
				cheb = dc
			}
			if cheb < minDistance {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cd)
		}
	}
	f.out = out
	return out
}

// QuadraticInterp refines the location of a peak at integer index i of x by
// fitting a parabola through (i-1, i, i+1). It returns the fractional index
// offset in [-0.5, 0.5]; boundary peaks return 0.
func QuadraticInterp(x []float64, i int) float64 {
	if i <= 0 || i >= len(x)-1 {
		return 0
	}
	return QuadraticOffset(x[i-1], x[i], x[i+1])
}

// QuadraticOffset is QuadraticInterp's core on the three samples around an
// interior peak: the vertex offset of the parabola through (-1, a), (0, b),
// (1, c), clamped to [-0.5, 0.5], or 0 for a flat triple. Callers that read
// a strided series (a grid column) apply QuadraticInterp's boundary rule
// themselves and pass the three cells.
func QuadraticOffset(a, b, c float64) float64 {
	den := a - 2*b + c
	if den == 0 {
		return 0
	}
	off := 0.5 * (a - c) / den
	if off > 0.5 {
		off = 0.5
	} else if off < -0.5 {
		off = -0.5
	}
	return off
}
