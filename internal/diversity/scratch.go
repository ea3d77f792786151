package diversity

import (
	"math"
	"slices"
	"sort"

	"rdbsc/internal/geo"
	"rdbsc/internal/scratch"
)

// This file holds the scratch-threaded variants of the expected-diversity
// evaluators and bounds. They are the same algorithms as expected.go /
// bounds.go — same operations on the same values in the same order, so the
// results are bit-identical — with every temporary slice drawn from a
// *scratch.Buffers instead of make. A nil Buffers degrades to plain
// allocation, and the non-Buf entry points simply delegate with nil.

// SDBuf is SD with pooled scratch.
func SDBuf(bufs *scratch.Buffers, angles []float64) float64 {
	r := len(angles)
	if r < 2 {
		return 0
	}
	sorted := bufs.F64(r)
	for i, a := range angles {
		sorted[i] = geo.NormalizeAngle(a)
	}
	sort.Float64s(sorted)
	var sd float64
	for i := 0; i < r; i++ {
		var gap float64
		if i == r-1 {
			gap = geo.TwoPi - sorted[r-1] + sorted[0]
		} else {
			gap = sorted[i+1] - sorted[i]
		}
		sd += H(gap / geo.TwoPi)
	}
	bufs.PutF64(sorted)
	return sd
}

// TDBuf is TD with pooled scratch.
func TDBuf(bufs *scratch.Buffers, arrivals []float64, start, end float64) float64 {
	total := end - start
	if total <= 0 || len(arrivals) == 0 {
		return 0
	}
	sorted := bufs.F64(len(arrivals))
	for i, a := range arrivals {
		sorted[i] = math.Max(start, math.Min(end, a))
	}
	sort.Float64s(sorted)
	var td float64
	prev := start
	for _, a := range sorted {
		td += H((a - prev) / total)
		prev = a
	}
	td += H((end - prev) / total)
	bufs.PutF64(sorted)
	return td
}

// ExpectedSDBuf is ExpectedSD with pooled scratch.
func ExpectedSDBuf(bufs *scratch.Buffers, angles, probs []float64) float64 {
	r := len(angles)
	if r != len(probs) {
		panic("diversity: angles and probs length mismatch")
	}
	if r < 2 {
		return 0
	}
	ws := newSortedByAngleBuf(bufs, angles, probs)
	var sum float64
	for j := 0; j < r; j++ {
		pj := ws.p[j]
		if pj == 0 {
			continue
		}
		failBetween := 1.0
		for step := 1; step < r; step++ {
			k := j + step
			if k >= r {
				k -= r
			}
			span := geo.AngularDiff(ws.a[j], ws.a[k])
			sum += H(span/geo.TwoPi) * pj * ws.p[k] * failBetween
			failBetween *= 1 - ws.p[k]
			if failBetween == 0 {
				break
			}
		}
	}
	ws.release(bufs)
	return sum
}

// ExpectedTDBuf is ExpectedTD with pooled scratch.
func ExpectedTDBuf(bufs *scratch.Buffers, arrivals, probs []float64, start, end float64) float64 {
	r := len(arrivals)
	if r != len(probs) {
		panic("diversity: arrivals and probs length mismatch")
	}
	total := end - start
	if total <= 0 || r == 0 {
		return 0
	}
	bs := newBoundariesBuf(bufs, arrivals, probs, start, end)
	n := len(bs.t) // r + 2
	var sum float64
	for a := 0; a < n-1; a++ {
		pa := bs.p[a]
		if pa == 0 {
			continue
		}
		failBetween := 1.0
		for b := a + 1; b < n; b++ {
			length := bs.t[b] - bs.t[a]
			sum += H(length/total) * pa * bs.p[b] * failBetween
			failBetween *= 1 - bs.p[b]
			if failBetween == 0 {
				break
			}
		}
	}
	bs.release(bufs)
	return sum
}

// ExpectedSTDBuf is ExpectedSTD with pooled scratch.
func ExpectedSTDBuf(bufs *scratch.Buffers, beta float64, angles, arrivals, probs []float64, start, end float64) float64 {
	var sd, td float64
	if beta > 0 {
		sd = ExpectedSDBuf(bufs, angles, probs)
	}
	if beta < 1 {
		td = ExpectedTDBuf(bufs, arrivals, probs, start, end)
	}
	return beta*sd + (1-beta)*td
}

// BoundsESDBuf is BoundsESD with pooled scratch.
func BoundsESDBuf(bufs *scratch.Buffers, angles, probs []float64) Bounds {
	r := len(angles)
	if r < 2 {
		return Bounds{}
	}
	hi := SDBuf(bufs, angles)
	minPair := math.Inf(1)
	ws := newSortedByAngleBuf(bufs, angles, probs)
	for j := 0; j < r; j++ {
		k := (j + 1) % r
		d := geo.AngularDiff(ws.a[j], ws.a[k])
		v := H(d/geo.TwoPi) + H(1-d/geo.TwoPi)
		if v < minPair {
			minPair = v
		}
	}
	ws.release(bufs)
	lo := probAtLeastTwo(probs) * minPair
	return Bounds{Lo: lo, Hi: hi}
}

// BoundsETDBuf is BoundsETD with pooled scratch. The per-arrival singleton
// TD of the lower bound is written out inline (entropy of the arrival's two
// induced sub-intervals) so no one-element slices form; the float operation
// sequence matches TD([]float64{a}, start, end) exactly.
func BoundsETDBuf(bufs *scratch.Buffers, arrivals, probs []float64, start, end float64) Bounds {
	r := len(arrivals)
	if r == 0 || end <= start {
		return Bounds{}
	}
	hi := TDBuf(bufs, arrivals, start, end)
	total := end - start
	minSingle := math.Inf(1)
	for _, a := range arrivals {
		c := math.Max(start, math.Min(end, a))
		v := H((c-start)/total) + H((end-c)/total)
		if v < minSingle {
			minSingle = v
		}
	}
	lo := probAtLeastOne(probs) * minSingle
	return Bounds{Lo: lo, Hi: hi}
}

// BoundsESTDBuf is BoundsESTD with pooled scratch.
func BoundsESTDBuf(bufs *scratch.Buffers, beta float64, angles, arrivals, probs []float64, start, end float64) Bounds {
	sd := BoundsESDBuf(bufs, angles, probs)
	td := BoundsETDBuf(bufs, arrivals, probs, start, end)
	return Bounds{
		Lo: beta*sd.Lo + (1-beta)*td.Lo,
		Hi: beta*sd.Hi + (1-beta)*td.Hi,
	}
}

// newSortedByAngleBuf is newSortedByAngle with pooled scratch; release the
// result with sortedWorkers.release.
func newSortedByAngleBuf(bufs *scratch.Buffers, angles, probs []float64) sortedWorkers {
	r := len(angles)
	idx := bufs.Int(r)
	for i := range idx {
		idx[i] = i
	}
	norm := bufs.F64(r)
	for i, a := range angles {
		norm[i] = geo.NormalizeAngle(a)
	}
	slices.SortFunc(idx, func(x, y int) int { return lessCmp(norm[x], norm[y]) })
	ws := sortedWorkers{a: bufs.F64(r), p: bufs.F64(r)}
	for i, id := range idx {
		ws.a[i] = norm[id]
		ws.p[i] = clampProb(probs[id])
	}
	bufs.PutF64(norm)
	bufs.PutInt(idx)
	return ws
}

func (ws sortedWorkers) release(bufs *scratch.Buffers) {
	bufs.PutF64(ws.a)
	bufs.PutF64(ws.p)
}

// newBoundariesBuf is newBoundaries with pooled scratch; release the result
// with boundaries.release.
func newBoundariesBuf(bufs *scratch.Buffers, arrivals, probs []float64, start, end float64) boundaries {
	r := len(arrivals)
	idx := bufs.Int(r)
	for i := range idx {
		idx[i] = i
	}
	clamped := bufs.F64(r)
	for i, a := range arrivals {
		clamped[i] = math.Max(start, math.Min(end, a))
	}
	slices.SortFunc(idx, func(x, y int) int { return lessCmp(clamped[x], clamped[y]) })
	bs := boundaries{t: bufs.F64Cap(r + 2), p: bufs.F64Cap(r + 2)}
	bs.t = append(bs.t, start)
	bs.p = append(bs.p, 1)
	for _, id := range idx {
		bs.t = append(bs.t, clamped[id])
		bs.p = append(bs.p, clampProb(probs[id]))
	}
	bs.t = append(bs.t, end)
	bs.p = append(bs.p, 1)
	bufs.PutF64(clamped)
	bufs.PutInt(idx)
	return bs
}

func (bs boundaries) release(bufs *scratch.Buffers) {
	bufs.PutF64(bs.t)
	bufs.PutF64(bs.p)
}

// lessCmp adapts the < ordering the unpooled helpers sort with to a
// slices.SortFunc comparison: negative exactly when a < b, so NaNs compare
// as they do under sort.Slice. slices.SortFunc runs the same pattern-
// defeating quicksort as sort.Slice and consults the comparison only as
// cmp < 0, so both produce the same permutation — ties included — while
// SortFunc's non-escaping closure keeps the pooled path allocation-free.
func lessCmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}
