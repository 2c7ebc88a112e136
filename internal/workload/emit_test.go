package workload

import (
	"errors"
	"math/rand"
	"testing"

	"tsm/internal/mem"
)

// TestEmitMatchesGenerate: for EVERY registered workload — the paper's
// seven, the extended matrix and the cross-workload mixes — pulling the
// emission through the mix's burst coroutine (bursts + iter.Pull, a second
// way to drive Emit) must reproduce the sequence the plain push collects
// (generate), element for element. The two runs use independently
// constructed generators, so this also re-proves determinism.
func TestEmitMatchesGenerate(t *testing.T) {
	cfg := testConfig()
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want := generate(spec.New(cfg))
			var emitErr error
			var got []mem.Access
			for burst := range bursts(spec.New(cfg), &emitErr) {
				if len(burst) == 0 || len(burst) > mixChunk {
					t.Fatalf("burst of %d accesses, want 1..%d", len(burst), mixChunk)
				}
				got = append(got, burst...)
			}
			if emitErr != nil {
				t.Fatalf("Emit failed: %v", emitErr)
			}
			if len(got) != len(want) {
				t.Fatalf("bursts produced %d accesses, generate %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d: bursts %+v != generate %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestEmitStopsOnYieldError: a failing sink must abort emission promptly —
// the generator must not keep producing the rest of the trace — and the
// yield's error must come back unchanged.
func TestEmitStopsOnYieldError(t *testing.T) {
	cfg := testConfig()
	sentinel := errors.New("sink full")
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			total := len(generate(spec.New(cfg)))
			const stopAfter = 100
			seen := 0
			err := spec.New(cfg).Emit(func(a mem.Access) error {
				seen++
				if seen >= stopAfter {
					return sentinel
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("Emit returned %v, want the yield error", err)
			}
			// "Promptly" = well before the end of the trace; the emitter
			// latching pattern may finish the current transaction/phase
			// bookkeeping, but must not run generation to completion.
			if seen >= total/2 {
				t.Fatalf("Emit yielded %d of %d accesses after the error; abort is not prompt", seen, total)
			}
		})
	}
}

// interleave is the reference interleaver over materialized per-node
// slices, written independently of interleaveEmit: while any node has
// accesses left, shuffle the node order (when rng is non-nil), then let every
// node contribute its next chunk accesses.
func interleave(perNode [][]mem.Access, chunk int, rng *rand.Rand) []mem.Access {
	if chunk <= 0 {
		chunk = 8
	}
	order := make([]int, len(perNode))
	for i := range order {
		order[i] = i
	}
	pos := make([]int, len(perNode))
	var out []mem.Access
	for {
		left := false
		for n, s := range perNode {
			left = left || pos[n] < len(s)
		}
		if !left {
			return out
		}
		if rng != nil {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, n := range order {
			end := min(pos[n]+chunk, len(perNode[n]))
			out = append(out, perNode[n][pos[n]:end]...)
			pos[n] = end
		}
	}
}

// TestInterleaveEmitMatchesInterleave: the streaming interleaver must
// reproduce the reference slice interleaver exactly — same output order AND
// same rng consumption — for awkward shapes (empty nodes, unequal lengths,
// chunk boundaries).
func TestInterleaveEmitMatchesInterleave(t *testing.T) {
	shapes := [][]int{
		{10, 25, 3},
		{0, 7, 0, 129},
		{64, 64, 64, 64},
		{1},
		{},
	}
	for _, chunk := range []int{0, 1, 4, 64} {
		for _, shape := range shapes {
			perNode := make([][]mem.Access, len(shape))
			for n, ln := range shape {
				for i := 0; i < ln; i++ {
					perNode[n] = append(perNode[n], mem.Access{Node: mem.NodeID(n), Addr: mem.Addr(i * 64)})
				}
			}
			rngA := rand.New(rand.NewSource(42))
			want := interleave(perNode, chunk, rngA)
			rngB := rand.New(rand.NewSource(42))
			got := interleaved(perNode, chunk, rngB)
			if len(got) != len(want) {
				t.Fatalf("chunk %d shape %v: %d streamed vs %d reference", chunk, shape, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("chunk %d shape %v: access %d differs", chunk, shape, i)
				}
			}
			// Both rngs must have advanced identically (same number of
			// shuffle rounds): their next outputs agree.
			if rngA.Int63() != rngB.Int63() {
				t.Fatalf("chunk %d shape %v: rng consumption diverged", chunk, shape)
			}
		}
	}
}

// TestInterleaveEmitPropagatesError: a yield error aborts the merge at once.
func TestInterleaveEmitPropagatesError(t *testing.T) {
	sentinel := errors.New("stop")
	i := 0
	c := cursor{n: 100, next: func() mem.Access {
		i++
		return mem.Access{}
	}}
	err := interleaveEmit([]cursor{c}, 8, nil, func(mem.Access) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if i != 1 {
		t.Fatalf("interleaveEmit pulled %d accesses after the error, want 1", i)
	}
}

// TestMixColocatesParts: the mix must interleave BOTH parts' traffic —
// key-value chains and CDN payload/connection regions — across all nodes, in
// bursts no longer than the mix chunk.
func TestMixColocatesParts(t *testing.T) {
	cfg := testConfig()
	m := NewMix(cfg)
	if m.Name() != "mix" || m.Class() != Commercial {
		t.Fatalf("mix identity wrong: %q/%v", m.Name(), m.Class())
	}
	if err := m.Timing().Validate(); err != nil {
		t.Fatalf("mix timing profile invalid: %v", err)
	}
	accesses := generate(m)
	if len(accesses) == 0 {
		t.Fatal("mix generated nothing")
	}
	kv := generate(NewKVStore(cfg))
	cdn := generate(NewCDN(cfg))
	if len(accesses) != len(kv)+len(cdn) {
		t.Fatalf("mix emitted %d accesses, want %d (kv) + %d (cdn)", len(accesses), len(kv), len(cdn))
	}
	const regionShift = 32
	regions := map[int]int{}
	for _, a := range accesses {
		regions[int(uint64(a.Addr)>>regionShift)]++
	}
	for _, r := range []int{regionKVChains, regionKVMeta, regionCDNObjects, regionCDNConn} {
		if regions[r] == 0 {
			t.Errorf("mix emitted no accesses in region %d; parts not colocated", r)
		}
	}
	// Per-part subsequences must be preserved: filtering the mix by region
	// family must reproduce each part's own stream.
	var gotKV, gotCDN []mem.Access
	for _, a := range accesses {
		switch r := int(uint64(a.Addr) >> regionShift); r {
		case regionKVChains, regionKVMeta, regionKVHeap, regionKVLocks:
			gotKV = append(gotKV, a)
		case regionCDNObjects, regionCDNConn:
			gotCDN = append(gotCDN, a)
		default:
			t.Fatalf("mix emitted access in unexpected region %d", r)
		}
	}
	for i := range kv {
		if gotKV[i] != kv[i] {
			t.Fatalf("mix reordered the kv subsequence at %d", i)
		}
	}
	for i := range cdn {
		if gotCDN[i] != cdn[i] {
			t.Fatalf("mix reordered the cdn subsequence at %d", i)
		}
	}
}

// TestMixSciComColocatesParts: the scientific+commercial mix must interleave
// em3d's graph traffic with db2's OLTP traffic on the same nodes, preserving
// each part's own stream order — the cross-class colocation the second
// registered mix models.
func TestMixSciComColocatesParts(t *testing.T) {
	cfg := testConfig()
	m := NewMixSciCom(cfg)
	if m.Name() != "mix-sci-com" || m.Class() != Commercial {
		t.Fatalf("mix-sci-com identity wrong: %q/%v", m.Name(), m.Class())
	}
	if err := m.Timing().Validate(); err != nil {
		t.Fatalf("mix-sci-com timing profile invalid: %v", err)
	}
	accesses := generate(m)
	if len(accesses) == 0 {
		t.Fatal("mix-sci-com generated nothing")
	}
	em3d := generate(NewEM3D(cfg))
	db2 := generate(NewOLTP(cfg, "DB2"))
	if len(accesses) != len(em3d)+len(db2) {
		t.Fatalf("mix-sci-com emitted %d accesses, want %d (em3d) + %d (db2)", len(accesses), len(em3d), len(db2))
	}
	// Per-part subsequences must be preserved: filtering the mix by region
	// family must reproduce each part's own stream.
	const regionShift = 32
	var gotEM3D, gotDB2 []mem.Access
	for _, a := range accesses {
		switch r := int(uint64(a.Addr) >> regionShift); r {
		case regionEM3DValues:
			gotEM3D = append(gotEM3D, a)
		case regionOLTPMeta, regionOLTPRecords, regionOLTPHeap, regionOLTPLocks:
			gotDB2 = append(gotDB2, a)
		default:
			t.Fatalf("mix-sci-com emitted access in unexpected region %d", r)
		}
	}
	if len(gotEM3D) != len(em3d) || len(gotDB2) != len(db2) {
		t.Fatalf("mix-sci-com split %d/%d accesses by region, want %d/%d", len(gotEM3D), len(gotDB2), len(em3d), len(db2))
	}
	for i := range em3d {
		if gotEM3D[i] != em3d[i] {
			t.Fatalf("mix-sci-com reordered the em3d subsequence at %d", i)
		}
	}
	for i := range db2 {
		if gotDB2[i] != db2[i] {
			t.Fatalf("mix-sci-com reordered the db2 subsequence at %d", i)
		}
	}
}

// TestMixStopsOnYieldError: the mix's part coroutines must shut down
// promptly when the consumer fails (no leak, error returned).
func TestMixStopsOnYieldError(t *testing.T) {
	sentinel := errors.New("downstream dead")
	seen := 0
	err := NewMix(testConfig()).Emit(func(mem.Access) error {
		seen++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if seen != 1 {
		t.Fatalf("mix yielded %d accesses after the error", seen)
	}
}

// TestRepeatLengthensTrace: Repeat must multiply the run length without
// changing the Repeat=1 sequence (which is what keeps the goldens pinned)
// and, for the phase-structured workloads, without changing the problem
// footprint.
func TestRepeatLengthensTrace(t *testing.T) {
	base := testConfig()
	double := base
	double.Repeat = 2
	for _, name := range []string{"em3d", "db2", "memkv", "cdn", "mix", "mix-sci-com"} {
		spec, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		one := generate(spec.New(base))
		two := generate(spec.New(double))
		if len(two) < 3*len(one)/2 {
			t.Errorf("%s: Repeat=2 produced %d accesses vs %d at Repeat=1; run length did not grow",
				name, len(two), len(one))
		}
		explicit := base
		explicit.Repeat = 1
		same := generate(spec.New(explicit))
		if len(same) != len(one) {
			t.Errorf("%s: explicit Repeat=1 changed the trace length", name)
		}
	}
}

// TestPaperPresetsCoverRegistry: every registered workload must have a paper
// preset, and every preset must name a registered workload.
func TestPaperPresetsCoverRegistry(t *testing.T) {
	for _, spec := range Registry() {
		p, ok := PaperPreset(spec.Name)
		if !ok {
			t.Errorf("no paper preset for %q", spec.Name)
			continue
		}
		if p.Scale <= 0 || p.Repeat <= 0 {
			t.Errorf("%s: preset %+v not positive", spec.Name, p)
		}
	}
	if len(paperPresets) != len(Registry()) {
		t.Errorf("%d presets for %d workloads", len(paperPresets), len(Registry()))
	}
	if _, ok := PaperPreset("bogus"); ok {
		t.Error("PaperPreset of unknown workload should fail")
	}
}
