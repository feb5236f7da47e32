package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
)

// TestChunkHashIsFNV64a pins ChunkHash to hash/fnv's New64a over the
// slice width and the slice's packed words as little-endian bytes, on
// aligned and unaligned ranges, so nodes of different builds agree on
// every summary.
func TestChunkHashIsFNV64a(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	v := bitvec.New(10000)
	v.FlipRandom(5000, rng)
	for i := 0; i < 200; i++ {
		lo := rng.IntN(v.Len())
		hi := lo + rng.IntN(v.Len()-lo+1)
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(hi-lo))
		h.Write(b[:])
		for _, w := range v.Slice(lo, hi).Words() {
			binary.LittleEndian.PutUint64(b[:], w)
			h.Write(b[:])
		}
		if got, want := ChunkHash(v, lo, hi), Hash(h.Sum64()); got != want {
			t.Fatalf("[%d,%d): ChunkHash %016x, FNV-64a %016x", lo, hi, uint64(got), uint64(want))
		}
	}
}

// TestChunkHashSeesPairedTopBitFlips flips bits lo+63 and lo+127 — the
// top bit of two consecutive packed words — in every chunk of a
// D=10000, 64-chunk layout (servehd's defaults). A hash that folds in
// a whole word per multiply step cancels exactly this pair.
func TestChunkHashSeesPairedTopBitFlips(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	v := bitvec.New(10000)
	v.FlipRandom(5000, rng)
	for k := 0; k < 64; k++ {
		lo, hi := ChunkBounds(v.Len(), 64, k)
		w := v.Clone()
		w.Flip(lo + 63)
		w.Flip(lo + 127)
		if ChunkHash(v, lo, hi) == ChunkHash(w, lo, hi) {
			t.Fatalf("chunk %d [%d,%d): flips at lo+63 and lo+127 leave the hash unchanged", k, lo, hi)
		}
	}
}

// TestSweepRepairsPairedTopBitFlips corrupts one replica with the flip
// pair above and checks the sweep finds it, repairs it, and keeps the
// fast path down until a clean sweep proves the replicas identical.
func TestSweepRepairsPairedTopBitFlips(t *testing.T) {
	_, sys := problem(t)
	const chunks = 16 // 256-bit chunks at D=4096
	f := newFleet(t, sys, Config{Replicas: 3, Seed: 11, DisableRecovery: true,
		AntiEntropy: AntiEntropyConfig{Chunks: chunks}})
	lo, hi := ChunkBounds(sys.Dimensions(), chunks, 3)
	if err := f.WithReplica(1, func(s *core.System) error {
		cv := s.Model().ClassVector(2)
		cv.Flip(lo + 63)
		cv.Flip(lo + 127)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep := sweep(t, f)
	if rep.DivergentBits != 2 || rep.RepairedChunks != 1 || rep.RepairedBits != hi-lo || rep.Healthy {
		t.Fatalf("sweep %+v, want 2 divergent bits, one %d-bit chunk repaired, not healthy", rep, hi-lo)
	}
	if f.Healthy() {
		t.Fatal("fast path re-armed by a sweep that repaired divergence")
	}
	if rep := sweep(t, f); rep.DivergentBits != 0 || !rep.Healthy {
		t.Fatalf("second sweep %+v, want clean and healthy", rep)
	}
	r1, _ := f.replica(1)
	r1.mu.RLock()
	defer r1.mu.RUnlock()
	if d := r1.sys.Model().ClassVector(2).Hamming(sys.Model().ClassVector(2)); d != 0 {
		t.Fatalf("repaired replica still %d bits from seed", d)
	}
}
