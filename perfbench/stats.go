package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs is not modified; an empty slice
// yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// clock is the time source of the latency accounting, so tests can drive
// it by hand.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// latencies collects per-event latencies, each measured from the moment
// its packet was due to the moment the event fired. The backing slice is
// reused across repetitions so recording does not allocate in steady
// state.
type latencies struct {
	ns []int64
}

func (l *latencies) reset()                { l.ns = l.ns[:0] }
func (l *latencies) add(due, at time.Time) { l.ns = append(l.ns, int64(at.Sub(due))) }
func (l *latencies) count() int            { return len(l.ns) }

// percentile returns the p-th percentile (0–100) in milliseconds by the
// nearest-rank rule, and whether the sample supports it: a percentile is
// reported only when at least ten samples lie beyond it, so a p99 needs a
// thousand samples.
func (l *latencies) percentile(p float64) (ms float64, ok bool) {
	n := len(l.ns)
	if n == 0 {
		return 0, false
	}
	sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] })
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	return float64(l.ns[rank-1]) / 1e6, beyond >= 10
}

// hist pools latencies over a whole run in log-linear buckets: values
// below histSub ns are counted exactly, larger ones in buckets 1/histSub
// of their power of two wide, so a percentile read back is within 0.1% of
// the sample's.
type hist struct {
	counts []uint64
	n      int
}

const histSub = 1024

func histIndex(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	s := bits.Len64(uint64(ns)) - 11 // ns>>s is in [histSub, 2*histSub)
	return (s+1)*histSub + int(uint64(ns)>>s) - histSub
}

// histBucket returns the smallest value bucket i holds and its width.
func histBucket(i int) (low, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	s := i/histSub - 1
	return int64(i%histSub+histSub) << s, 1 << s
}

// addAll counts every latency of ns.
func (h *hist) addAll(ns []int64) {
	for _, v := range ns {
		i := histIndex(v)
		if i >= len(h.counts) {
			h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
		}
		h.counts[i]++
	}
	h.n += len(ns)
}

// percentile returns the p-th percentile (0–100) in milliseconds by the
// nearest-rank rule, placed within its bucket by rank, and whether the
// sample supports it (ten samples beyond it, as latencies.percentile).
func (h *hist) percentile(p float64) (ms float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := max(int(math.Ceil(p/100*float64(h.n))), 1)
	seen := 0
	for i, c := range h.counts {
		if seen+int(c) >= rank {
			low, width := histBucket(i)
			at := float64(low) + (float64(rank-seen)-0.5)/float64(c)*float64(width)
			return at / 1e6, h.n-rank >= 10
		}
		seen += int(c)
	}
	panic("unreachable: rank within count")
}
