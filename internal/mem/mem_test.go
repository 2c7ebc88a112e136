package mem

import (
	"testing"
	"testing/quick"
)

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if g.BlockSize != 64 {
		t.Fatalf("default block size = %d, want 64", g.BlockSize)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
}

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		size int
		ok   bool
	}{
		{64, true}, {32, true}, {1, true}, {128, true},
		{0, false}, {-8, false}, {63, false}, {96, false},
	}
	for _, c := range cases {
		err := Geometry{BlockSize: c.size}.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(BlockSize=%d) error=%v, want ok=%v", c.size, err, c.ok)
		}
	}
}

func TestBlockOfAndOffset(t *testing.T) {
	g := Geometry{BlockSize: 64}
	cases := []struct {
		addr   Addr
		block  BlockAddr
		offset int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{63, 0, 63},
		{64, 64, 0},
		{65, 64, 1},
		{0xFFFF, 0xFFC0, 0x3F},
	}
	for _, c := range cases {
		if got := g.BlockOf(c.addr); got != c.block {
			t.Errorf("BlockOf(%#x) = %#x, want %#x", c.addr, got, c.block)
		}
		if got := g.Offset(c.addr); got != c.offset {
			t.Errorf("Offset(%#x) = %d, want %d", c.addr, got, c.offset)
		}
	}
}

func TestBlockIndexRoundTrip(t *testing.T) {
	g := Geometry{BlockSize: 64}
	f := func(raw uint32) bool {
		a := Addr(raw)
		return BlockAddr(g.BlockIndex(a)*uint64(g.BlockSize)) == g.BlockOf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockOfIdempotent(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint64) bool {
		b := g.BlockOf(Addr(raw))
		return g.BlockOf(Addr(b)) == b && g.Offset(Addr(b)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessTypeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || AtomicRMW.String() != "rmw" {
		t.Fatalf("unexpected AccessType strings: %v %v %v", Read, Write, AtomicRMW)
	}
	if AccessType(200).String() == "" {
		t.Fatal("unknown AccessType should still produce a string")
	}
}
