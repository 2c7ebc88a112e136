package tse

// cmobMinGrowth is the first allocation of a bounded CMOB's storage, in
// entries; later growth doubles it, clamped to the capacity.
const cmobMinGrowth = 1024

// CMOB is a node's Coherence Miss Order Buffer: a circular buffer, resident
// in a private region of main memory, that records the node's coherent read
// misses (and useful streamed hits, which replace the misses they
// eliminated) in program order (Section 3.1).
//
// An entry is the block's 4-byte BlockID rather than its address: a stream
// read from the CMOB is compared and streamed by id. StorageBytes still
// charges the paper's 6-byte packed address per entry. Entries are
// addressed by a monotonically increasing append offset; the circular
// storage retains only the most recent Capacity entries, so reads of
// overwritten offsets fail, which is how a too-small CMOB loses coverage
// (Figure 10).
//
// The storage is allocated lazily: a new CMOB holds nothing, and Append
// grows the buffer as entries arrive, never beyond Capacity entries. Once
// Capacity entries are held it wraps in place.
type CMOB struct {
	capacity int // 0 = unlimited
	entries  []BlockID
	next     uint64 // next append offset (== number of appends so far)
}

// NewCMOB returns an empty CMOB with the given capacity in entries
// (0 = unlimited). It allocates no storage until the first Append.
func NewCMOB(capacity int) *CMOB {
	return &CMOB{capacity: capacity}
}

// Capacity returns the configured capacity (0 = unlimited).
func (c *CMOB) Capacity() int { return c.capacity }

// Len returns the number of entries currently retained.
func (c *CMOB) Len() int {
	if c.capacity == 0 || c.next < uint64(c.capacity) {
		return int(c.next)
	}
	return c.capacity
}

// Appends returns the total number of appends performed.
func (c *CMOB) Appends() uint64 { return c.next }

// Append records a block and returns the offset at which it was
// stored. The recording node sends this offset to the block's directory
// entry as a CMOB pointer.
func (c *CMOB) Append(b BlockID) uint64 {
	offset := c.next
	c.next++
	if c.capacity > 0 && len(c.entries) == c.capacity {
		c.entries[offset%uint64(c.capacity)] = b
		return offset
	}
	if c.capacity > 0 && len(c.entries) == cap(c.entries) {
		grown := make([]BlockID, len(c.entries), min(max(2*cap(c.entries), cmobMinGrowth), c.capacity))
		copy(grown, c.entries)
		c.entries = grown
	}
	c.entries = append(c.entries, b)
	return offset
}

// resident reports whether the entry at offset is still retained.
func (c *CMOB) resident(offset uint64) bool {
	if offset >= c.next {
		return false
	}
	if c.capacity == 0 {
		return true
	}
	return c.next-offset <= uint64(c.capacity)
}

// index returns the storage index of a resident offset.
func (c *CMOB) index(offset uint64) int {
	if c.capacity == 0 {
		return int(offset)
	}
	return int(offset % uint64(c.capacity))
}

// At returns the entry at offset, if still resident.
func (c *CMOB) At(offset uint64) (BlockID, bool) {
	if !c.resident(offset) {
		return 0, false
	}
	return c.entries[c.index(offset)], true
}

// AppendStream appends to dst up to n entries starting at the entry
// *following* offset — the stream that followed the pointed-to miss — and
// returns the extended slice with the offset of the last entry appended
// (so the caller can continue reading when the FIFO runs half empty). It
// appends nothing, and returns offset, when the pointed entry has been
// overwritten or no subsequent entries exist.
func (c *CMOB) AppendStream(dst []BlockID, offset uint64, n int) ([]BlockID, uint64) {
	if n <= 0 || !c.resident(offset) {
		return dst, offset
	}
	if avail := c.next - 1 - offset; uint64(n) > avail {
		n = int(avail)
	}
	// Every entry after a resident one is resident too; the run wraps at
	// most once, at the end of the storage.
	start := c.index(offset + 1)
	first := min(n, len(c.entries)-start)
	dst = append(dst, c.entries[start:start+first]...)
	dst = append(dst, c.entries[:n-first]...)
	return dst, offset + uint64(n)
}

// StorageBytes returns the memory footprint of the retained entries using
// the paper's 6-byte packed entries.
func (c *CMOB) StorageBytes() int { return c.Len() * CMOBEntryBytes }
