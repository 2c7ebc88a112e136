package tse

import (
	"testing"

	"tsm/internal/mem"
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
	var discarded []mem.BlockAddr
	s := NewSVB(2)
	s.SetDiscardHandler(func(b mem.BlockAddr, r DiscardReason) {
		if r != DiscardEvicted {
			t.Fatalf("discard reason = %v, want evicted", r)
		}
		discarded = append(discarded, b)
	})
	s.Insert(64, 0)
	s.Insert(128, 0)
	// Touch 64 so 128 becomes LRU... touching means a hit which removes it;
	// instead re-insert 64 to refresh recency.
	s.Insert(64, 0)
	s.Insert(192, 0)
	if len(discarded) != 1 || discarded[0] != 128 {
		t.Fatalf("discarded = %v, want [128]", discarded)
	}
	if s.Stats().Evicted != 1 || s.Stats().Discards != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	if !s.Contains(64) || !s.Contains(192) {
		t.Fatal("wrong survivor set")
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
		s.Insert(mem.BlockAddr(i*64), 0)
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
		s.Insert(mem.BlockAddr(i*64), 0)
	}
	if s.Len() != 10000 {
		t.Fatalf("Len = %d, want 10000", s.Len())
	}
	if s.Stats().Evicted != 0 {
		t.Fatal("unlimited SVB must not evict")
	}
}

func TestSVBReinsertRefreshesWithoutDoubleCount(t *testing.T) {
	s := NewSVB(4)
	s.Insert(64, 1)
	s.Insert(64, 2)
	if s.Stats().Inserted != 1 {
		t.Fatalf("Inserted = %d, want 1 (refresh, not new entry)", s.Stats().Inserted)
	}
	q, ok := s.Hit(64)
	if !ok || q != 2 {
		t.Fatalf("Hit = %d,%v; queue id should be updated to 2", q, ok)
	}
}

func TestSVBCapacityRespected(t *testing.T) {
	s := NewSVB(8)
	for i := 0; i < 100; i++ {
		s.Insert(mem.BlockAddr(i*64), 0)
		if s.Len() > 8 {
			t.Fatalf("SVB grew to %d entries, capacity 8", s.Len())
		}
	}
	st := s.Stats()
	if st.Inserted != 100 || st.Evicted != 92 {
		t.Fatalf("stats = %+v, want 100 inserted / 92 evicted", st)
	}
}
