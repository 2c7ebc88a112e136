package tse

import (
	"testing"
)

func TestSVBInsertHit(t *testing.T) {
	s := NewSVB(4)
	s.Insert(64, 1)
	s.Insert(128, 2)
	if s.Len() != 2 || !s.Contains(64) {
		t.Fatalf("Len=%d Contains(64)=%v", s.Len(), s.Contains(64))
	}
	q, ok := s.Hit(64)
	if !ok || q != 1 {
		t.Fatalf("Hit(64) = %d,%v want 1,true", q, ok)
	}
	if s.Contains(64) {
		t.Fatal("hit entry must be removed (moved to L1)")
	}
	if _, ok := s.Hit(64); ok {
		t.Fatal("second hit on the same block should miss")
	}
	st := s.Stats()
	if st.Inserted != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSVBLRUEviction(t *testing.T) {
	s := NewSVB(2)
	s.Insert(64, 0)
	s.Insert(128, 0)
	// 64 went in first, so it is the least recently used.
	s.Insert(192, 0)
	if s.Contains(64) {
		t.Fatal("the LRU block 64 survived the eviction")
	}
	if !s.Contains(128) || !s.Contains(192) {
		t.Fatal("wrong survivor set")
	}
	if st := s.Stats(); st.Evicted != 1 || st.Discards != 1 || st.Invalidated != 0 || st.Unused != 0 {
		t.Fatalf("stats = %+v, want one eviction and no other discard", st)
	}
}

func TestSVBInvalidate(t *testing.T) {
	s := NewSVB(4)
	s.Insert(64, 3)
	if !s.Invalidate(64) {
		t.Fatal("Invalidate of present block should return true")
	}
	if s.Invalidate(64) {
		t.Fatal("Invalidate of absent block should return false")
	}
	st := s.Stats()
	if st.Invalidated != 1 || st.Discards != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSVBFlushCountsUnused(t *testing.T) {
	s := NewSVB(0)
	for i := 0; i < 10; i++ {
		s.Insert(uint64(i*64), 0)
	}
	s.Hit(0)
	s.Flush()
	st := s.Stats()
	if st.Unused != 9 || st.Discards != 9 || st.Hits != 1 {
		t.Fatalf("stats after flush = %+v", st)
	}
	if s.Len() != 0 {
		t.Fatal("Flush should empty the SVB")
	}
}

func TestSVBUnlimitedNeverEvicts(t *testing.T) {
	s := NewSVB(0)
	for i := 0; i < 10000; i++ {
		s.Insert(uint64(i*64), 0)
	}
	if s.Len() != 10000 {
		t.Fatalf("Len = %d, want 10000", s.Len())
	}
	if s.Stats().Evicted != 0 {
		t.Fatal("unlimited SVB must not evict")
	}
}

func TestSVBCapacityRespected(t *testing.T) {
	s := NewSVB(8)
	for i := 0; i < 100; i++ {
		s.Insert(uint64(i*64), 0)
		if s.Len() > 8 {
			t.Fatalf("SVB grew to %d entries, capacity 8", s.Len())
		}
	}
	st := s.Stats()
	if st.Inserted != 100 || st.Evicted != 92 {
		t.Fatalf("stats = %+v, want 100 inserted / 92 evicted", st)
	}
}
