package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// weighted is a sample value carried with a multiplicity.
type weighted struct {
	value  float64
	weight int
}

// weightedQuantile returns the q-quantile of a multiset given as
// (value, multiplicity) pairs, interpolating between closest ranks like
// quantile does on the expanded multiset.
func weightedQuantile(ws []weighted, q float64) float64 {
	total := 0
	for _, w := range ws {
		total += w.weight
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].value < ws[j].value })
	at := func(rank int) float64 {
		for _, w := range ws {
			if rank < w.weight {
				return w.value
			}
			rank -= w.weight
		}
		return ws[len(ws)-1].value
	}
	pos := q * float64(total-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return at(lo) + (at(hi)-at(lo))*(pos-float64(lo))
}

// allocBytes reads the process-wide allocated-bytes counter; the
// difference of two readings is what the work in between allocated.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sample is one completed request: when it completed, relative to the
// start of the timed phase, and how long it took.
type sample struct {
	at, took time.Duration
}

// windows is how many equal windows a timed phase is cut into.
const windows = 20

// windowed reports ops_per_s and the latency percentiles of a timed
// phase of length d as medians over equal windows, so a stall on the
// shared host moves one window rather than the run's figure.
func windowed(o *outcome, all []sample, d time.Duration) {
	w := d / windows
	lats := make([][]float64, windows)
	for _, s := range all {
		if i := int(s.at / w); i < windows {
			lats[i] = append(lats[i], us(s.took))
		}
	}
	var rate, p50, p95 []float64
	for _, l := range lats {
		if len(l) == 0 {
			continue
		}
		rate = append(rate, float64(len(l))/w.Seconds())
		p50 = append(p50, quantile(l, 0.50))
		p95 = append(p95, quantile(l, 0.95))
	}
	o.metrics["ops_per_s"] = median(rate)
	o.metrics["latency_p50_us"] = median(p50)
	o.metrics["latency_p95_us"] = median(p95)
}
