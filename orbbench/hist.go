package main

import "math/bits"

// hist is a log-linear latency histogram: values below 64 ns have a
// bucket each, and every power of two above is split into 64 buckets,
// so a bucket is at most 1/64 of its value wide. Its size is fixed, so
// the benchmark's own memory does not grow with the number of calls it
// logs and does not show in peak_rss_MB.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histBuckets covers values up to 2^40 ns, about 18 minutes.
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histBucket(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return min((shift+1)*histSub+int(v>>shift)&(histSub-1), histBuckets-1)
}

// histLow returns the smallest value of bucket i, and its width.
func histLow(i int) (int64, int64) {
	if i < histSub {
		return int64(i), 1
	}
	shift := i/histSub - 1
	return int64(histSub+i%histSub) << shift, 1 << shift
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolating linearly within the
// bucket it falls in; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histLow(i)
			return float64(lo) + float64(width)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := histLow(histBuckets - 1)
	return float64(lo + width)
}
