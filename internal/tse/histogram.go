package tse

import "sort"

// Histogram counts observations in integer-keyed buckets: the distribution
// of SVB hits per stream behind Figure 13.
type Histogram struct {
	counts map[int]uint64
	total  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]uint64)}
}

// Add increments bucket by one.
func (h *Histogram) Add(bucket int) { h.AddN(bucket, 1) }

// AddN increments bucket by n.
func (h *Histogram) AddN(bucket int, n uint64) {
	h.counts[bucket] += n
	h.total += n
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the count in a bucket.
func (h *Histogram) Count(bucket int) uint64 { return h.counts[bucket] }

// Buckets returns the sorted list of non-empty buckets.
func (h *Histogram) Buckets() []int {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// WeightedCumulativeFraction returns the fraction of *weight* (bucket value
// times count) contributed by buckets <= b. Figure 13 plots the cumulative
// fraction of all SVB hits contributed by streams of each length, which is a
// weighted CDF where the weight of a stream of length L is L.
func (h *Histogram) WeightedCumulativeFraction(b int) float64 {
	var total, c float64
	for k, n := range h.counts {
		w := float64(k) * float64(n)
		total += w
		if k <= b {
			c += w
		}
	}
	if total == 0 {
		return 0
	}
	return c / total
}

// Mean returns the mean bucket value weighted by count.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for k, n := range h.counts {
		sum += float64(k) * float64(n)
	}
	return sum / float64(h.total)
}
