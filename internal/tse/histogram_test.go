package tse

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	h.Add(1)
	h.Add(1)
	h.AddN(4, 2)
	if h.Total() != 4 {
		t.Fatalf("Total = %d, want 4", h.Total())
	}
	if h.Count(1) != 2 || h.Count(4) != 2 || h.Count(2) != 0 {
		t.Fatal("bucket counts wrong")
	}
	b := h.Buckets()
	if len(b) != 2 || b[0] != 1 || b[1] != 4 {
		t.Fatalf("Buckets = %v, want [1 4]", b)
	}
	// Weighted: weight(1)*2 = 2, weight(4)*2 = 8, total 10.
	if got := h.WeightedCumulativeFraction(1); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("WeightedCumulativeFraction(1) = %v, want 0.2", got)
	}
	if got := h.WeightedCumulativeFraction(4); math.Abs(got-1) > 1e-12 {
		t.Fatalf("WeightedCumulativeFraction(4) = %v, want 1", got)
	}
	if got := h.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

// TestHistogramCumulativeMonotone: the weighted CDF Figure 13 plots rises
// monotonically within [0, 1] and reaches 1 at the largest bucket.
func TestHistogramCumulativeMonotone(t *testing.T) {
	f := func(buckets []uint8) bool {
		h := NewHistogram()
		var weight int
		for _, b := range buckets {
			h.Add(int(b))
			weight += int(b)
		}
		prev := -1.0
		for b := 0; b <= 256; b += 8 {
			c := h.WeightedCumulativeFraction(b)
			if c < prev-1e-12 || c < 0 || c > 1+1e-12 {
				return false
			}
			prev = c
		}
		return weight == 0 || math.Abs(h.WeightedCumulativeFraction(256)-1) <= 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
