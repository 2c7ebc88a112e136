package tse

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCMOBAppendAndAt(t *testing.T) {
	c := NewCMOB(4)
	if c.Capacity() != 4 || c.Len() != 0 {
		t.Fatalf("fresh CMOB: capacity=%d len=%d", c.Capacity(), c.Len())
	}
	offsets := make([]uint64, 0, 6)
	for i := 0; i < 6; i++ {
		offsets = append(offsets, c.Append(BlockID(i*64)))
	}
	if c.Appends() != 6 || c.Len() != 4 {
		t.Fatalf("appends=%d len=%d, want 6/4", c.Appends(), c.Len())
	}
	// Oldest two entries (offsets 0,1) have been overwritten.
	if _, ok := c.At(offsets[0]); ok {
		t.Fatal("offset 0 should be overwritten")
	}
	if _, ok := c.At(offsets[1]); ok {
		t.Fatal("offset 1 should be overwritten")
	}
	for i := 2; i < 6; i++ {
		b, ok := c.At(offsets[i])
		if !ok || b != BlockID(i*64) {
			t.Fatalf("At(%d) = %#x,%v want %#x", offsets[i], b, ok, i*64)
		}
	}
	if _, ok := c.At(99); ok {
		t.Fatal("future offset should not be resident")
	}
}

func TestCMOBUnlimited(t *testing.T) {
	c := NewCMOB(0)
	for i := 0; i < 1000; i++ {
		c.Append(BlockID(i * 64))
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
	}
	if b, ok := c.At(0); !ok || b != 0 {
		t.Fatal("unlimited CMOB should retain the first entry")
	}
	if c.StorageBytes() != 1000*CMOBEntryBytes {
		t.Fatalf("StorageBytes = %d, want %d", c.StorageBytes(), 1000*CMOBEntryBytes)
	}
}

func TestCMOBReadStream(t *testing.T) {
	c := NewCMOB(0)
	for i := 0; i < 10; i++ {
		c.Append(BlockID(i * 64))
	}
	// Stream following entry 3 is entries 4..7 for n=4.
	addrs, last := c.AppendStream(nil, 3, 4)
	if len(addrs) != 4 || last != 7 {
		t.Fatalf("AppendStream(nil, 3, 4) = %v last=%d", addrs, last)
	}
	for i, a := range addrs {
		if a != BlockID((4+i)*64) {
			t.Fatalf("stream entry %d = %#x, want %#x", i, a, (4+i)*64)
		}
	}
	// Continue from last: entries 8,9 only.
	addrs, last = c.AppendStream(nil, last, 4)
	if len(addrs) != 2 || last != 9 {
		t.Fatalf("continued AppendStream = %v last=%d", addrs, last)
	}
	// Nothing beyond the end.
	addrs, _ = c.AppendStream(nil, 9, 4)
	if addrs != nil {
		t.Fatalf("AppendStream at tail = %v, want nil", addrs)
	}
	// Nothing for zero or negative n.
	if addrs, _ := c.AppendStream(nil, 0, 0); addrs != nil {
		t.Fatal("AppendStream with n=0 should append nothing")
	}
}

func TestCMOBReadStreamOverwritten(t *testing.T) {
	c := NewCMOB(4)
	for i := 0; i < 10; i++ {
		c.Append(BlockID(i * 64))
	}
	// Offset 2 is long overwritten: no stream available.
	if addrs, _ := c.AppendStream(nil, 2, 4); addrs != nil {
		t.Fatalf("stream from overwritten offset = %v, want nil", addrs)
	}
	// Offset 6 is still resident; stream = entries 7,8,9.
	addrs, last := c.AppendStream(nil, 6, 8)
	if len(addrs) != 3 || last != 9 {
		t.Fatalf("AppendStream(nil, 6, 8) = %v last=%d", addrs, last)
	}
}

func TestCMOBFreshIsEmpty(t *testing.T) {
	// A CMOB is discarded by making a new one, which holds nothing and
	// allocates nothing until its first Append.
	for _, capacity := range []int{0, 8, 262144} {
		c := NewCMOB(capacity)
		if c.Len() != 0 || c.Appends() != 0 || c.StorageBytes() != 0 || cap(c.entries) != 0 {
			t.Fatalf("NewCMOB(%d): len=%d appends=%d bytes=%d cap=%d, want all 0",
				capacity, c.Len(), c.Appends(), c.StorageBytes(), cap(c.entries))
		}
		if _, ok := c.At(0); ok {
			t.Fatalf("NewCMOB(%d): offset 0 resident before any append", capacity)
		}
		if off := c.Append(64); off != 0 {
			t.Fatalf("NewCMOB(%d): first Append offset = %d, want 0", capacity, off)
		}
		if b, ok := c.At(0); !ok || b != 64 {
			t.Fatalf("NewCMOB(%d): At(0) = %#x,%v want 0x40,true", capacity, b, ok)
		}
	}
}

func TestCMOBStreamMatchesAppendOrder(t *testing.T) {
	// Property: for an unlimited CMOB, AppendStream(nil, i, n) returns exactly
	// the blocks appended at positions i+1..i+n.
	f := func(raw []uint32, start uint8, n uint8) bool {
		c := NewCMOB(0)
		blocks := make([]BlockID, len(raw))
		for i, r := range raw {
			blocks[i] = BlockID(r)
			c.Append(blocks[i])
		}
		if len(raw) == 0 {
			return true
		}
		i := uint64(start) % uint64(len(raw))
		want := int(n%16) + 1
		addrs, _ := c.AppendStream(nil, i, want)
		for j, a := range addrs {
			idx := int(i) + 1 + j
			if idx >= len(blocks) || a != blocks[idx] {
				return false
			}
		}
		return len(addrs) <= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// eagerCMOB is the test's reference CMOB: the whole circular buffer
// allocated up front, read one entry at a time.
type eagerCMOB struct {
	ring []BlockID
	next uint64
}

func (c *eagerCMOB) append(b BlockID) {
	c.ring[c.next%uint64(len(c.ring))] = b
	c.next++
}

func (c *eagerCMOB) stream(offset uint64, n int) ([]BlockID, uint64) {
	capacity := uint64(len(c.ring))
	if offset >= c.next || c.next-offset > capacity {
		return nil, offset
	}
	var out []BlockID
	last := offset
	for o := offset + 1; o < c.next && len(out) < n; o++ {
		out = append(out, c.ring[o%capacity])
		last = o
	}
	return out, last
}

func TestCMOBAppendStreamMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 3, 7, 64, cmobMinGrowth, 1500, 5000} {
		c, ref := NewCMOB(capacity), &eagerCMOB{ring: make([]BlockID, capacity)}
		for i := 0; i < 3*capacity+10; i++ {
			b := BlockID(rng.Intn(1 << 20))
			if off := c.Append(b); off != ref.next {
				t.Fatalf("capacity %d: Append offset %d, want %d", capacity, off, ref.next)
			}
			ref.append(b)
			if cap(c.entries) > capacity {
				t.Fatalf("capacity %d: storage grew to %d entries", capacity, cap(c.entries))
			}
			for q := 0; q < 3; q++ {
				// Offsets from just before the oldest retained entry to
				// the newest; a non-empty dst must be kept as a prefix.
				lo := int64(ref.next) - int64(capacity) - 2
				offset := uint64(max(0, lo+rng.Int63n(int64(capacity)+3)))
				n := rng.Intn(20)
				dst := []BlockID{1, 2}[:rng.Intn(3)]
				got, last := c.AppendStream(dst, offset, n)
				want, wantLast := ref.stream(offset, n)
				if !slices.Equal(got[:len(dst)], dst) || !slices.Equal(got[len(dst):], want) || last != wantLast {
					t.Fatalf("capacity %d after %d appends: AppendStream(%v, %d, %d) = %v,%d; want %v,%d",
						capacity, ref.next, dst, offset, n, got, last, want, wantLast)
				}
			}
		}
		if c.Len() != capacity || c.StorageBytes() != capacity*CMOBEntryBytes {
			t.Fatalf("capacity %d: full CMOB Len %d, StorageBytes %d", capacity, c.Len(), c.StorageBytes())
		}
	}
}
