package fleet

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
)

// FuzzChunkRepair drives the shipping anti-entropy sweep (SweepNow
// over in-process replicas) on fuzz-chosen class images: 3 or 5
// replicas, the first few corrupted with different rotations of an
// adversarial pattern, written through WithReplica. One sweep must
// (a) converge all replicas to one identical image, (b) equal the
// healthy image whenever the corrupted copies are a strict minority,
// and (c) equal the per-bit reference majority of the pre-sweep images.
// Quarantine is disabled so every divergence goes through chunk repair.
func FuzzChunkRepair(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte("healthy-model-bits"), []byte{0xFF, 0x00, 0xAA}, uint8(4))
	f.Add(uint8(5), uint8(2), []byte("some longer healthy image payload......"), []byte{0x55}, uint8(8))
	f.Add(uint8(3), uint8(2), []byte("minority-is-two-of-three"), []byte{0x0F, 0xF0}, uint8(1))
	f.Add(uint8(5), uint8(5), []byte("every-replica-corrupted-differently"), []byte{1, 2, 3, 4, 5}, uint8(16))

	f.Fuzz(func(t *testing.T, nReplicas, nCorrupt uint8, image, corruption []byte, chunks uint8) {
		n := int(nReplicas)
		if n != 3 && n != 5 {
			t.Skip()
		}
		if len(image) == 0 || len(corruption) == 0 {
			t.Skip()
		}
		_, sys := problem(t)
		classes, dims := sys.Classes(), sys.Dimensions()
		flt, err := New(sys, Config{
			Replicas:        n,
			DisableRecovery: true,
			AntiEntropy:     AntiEntropyConfig{Chunks: int(chunks)%64 + 1, QuarantineDivergence: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer flt.Close()

		// Class c's healthy image tiles the fuzz image from byte c; the
		// first k replicas flip it where their rotation of the pattern
		// is set, so the minorities do not all agree with each other.
		k := int(nCorrupt) % (n + 1)
		healthy := func(c, b int) bool { return image[(b/8+c)%len(image)]&(1<<(b%8)) != 0 }
		flipped := func(i, b int) bool {
			return i < k && corruption[((b+i*7)/8)%len(corruption)]&(1<<((b+i)%8)) != 0
		}
		for i := 0; i < n; i++ {
			if err := flt.WithReplica(i, func(s *core.System) error {
				for c := 0; c < classes; c++ {
					v := bitvec.New(dims)
					for b := 0; b < dims; b++ {
						v.Set(b, healthy(c, b) != flipped(i, b))
					}
					s.Model().SetClassVector(c, v)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}

		if _, err := flt.SweepNow(); err != nil {
			t.Fatal(err)
		}
		images := make([][]*bitvec.Vector, n)
		for i := range images {
			if err := flt.WithReplica(i, func(s *core.System) error {
				images[i] = s.Snapshot()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; c < classes; c++ {
			// (a) Converged: all replicas identical.
			for i := 1; i < n; i++ {
				if !images[i][c].Equal(images[0][c]) {
					t.Fatalf("class %d: replicas %d and 0 differ after repair", c, i)
				}
			}
			for b := 0; b < dims; b++ {
				ones := 0
				for i := 0; i < n; i++ {
					if healthy(c, b) != flipped(i, b) {
						ones++
					}
				}
				got := images[0][c].Get(b)
				// (b) Strict minority corrupted -> the healthy image.
				if 2*k < n && got != healthy(c, b) {
					t.Fatalf("minority corruption (%d of %d) leaked into class %d bit %d", k, n, c, b)
				}
				// (c) The per-bit reference majority (odd n never ties).
				if got != (2*ones > n) {
					t.Fatalf("class %d bit %d: repaired %v, reference majority %v", c, b, got, 2*ones > n)
				}
			}
		}
	})
}

// FuzzJournalReplay fuzzes Replay against arbitrary byte streams: it
// must never panic, and any stream it accepts must satisfy the dense
// monotonic-sequence invariant.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"seq":1,"t":1,"kind":"sweep","replica":-1,"class":-1,"chunk":-1}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Replay(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range events {
			if e.Seq != int64(i)+1 {
				t.Fatalf("accepted journal with seq %d at position %d", e.Seq, i)
			}
		}
	})
}

// FuzzJournalChain builds a genuine sealed journal, applies a
// fuzz-chosen mutation (bit flip or truncation) inside the sealed
// region, and requires that the defense in depth holds: either strict
// Replay rejects the stream outright, or the anchor check against the
// original sealed root refuses the mutated lineage. A mutation that
// survives both would let an attacker rewrite healing history.
func FuzzJournalChain(f *testing.F) {
	f.Add(uint16(0), true, uint8(0), uint8(20), uint8(4))
	f.Add(uint16(100), false, uint8(3), uint8(20), uint8(4))
	f.Add(uint16(57), true, uint8(7), uint8(9), uint8(2))
	f.Add(uint16(4000), false, uint8(1), uint8(40), uint8(8))
	f.Fuzz(func(t *testing.T, pos uint16, truncate bool, bit, nEvents, batch uint8) {
		n := int(nEvents)%48 + 2
		sb := int(batch)%8 + 1
		var buf bytes.Buffer
		j := NewJournal(&buf)
		j.SetSealBatch(sb)
		for i := 0; i < n; i++ {
			if err := j.Append(Event{Kind: EventRepair, Replica: i % 3, Class: i % 5, Chunk: i, Bits: i}); err != nil {
				t.Fatal(err)
			}
		}
		anchor, ok := j.Anchor()
		if !ok {
			t.Skip() // too few events to seal
		}
		raw := buf.Bytes()
		rep, err := Verify(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("pristine journal does not verify: %v", err)
		}
		if err := rep.CheckAnchor(anchor); err != nil {
			t.Fatalf("pristine journal fails its own anchor: %v", err)
		}
		// Locate the end of the sealed region (the last seal line's
		// newline) and clamp the mutation inside it. Mutations that only
		// touch the torn-tail tolerance window (the final newline) are
		// excluded — that window is tolerated by the crash contract.
		sealedEnd := 0
		count := int64(0)
		for i, b := range raw {
			if b == '\n' {
				count++
				if count == rep.Seals[len(rep.Seals)-1].SealSeq {
					sealedEnd = i + 1
					break
				}
			}
		}
		if sealedEnd < 2 {
			t.Skip()
		}
		var mutated []byte
		if truncate {
			cut := int(pos) % (sealedEnd - 1) // 0..sealedEnd-2: always loses sealed bytes
			mutated = raw[:cut]
		} else {
			off := int(pos) % sealedEnd
			if raw[off] == '\n' {
				off = (off + 1) % sealedEnd // structural newline flips covered by truncate arm
			}
			mutated = append([]byte(nil), raw...)
			mask := byte(1) << (bit % 8)
			mutated[off] ^= mask
			if mutated[off] == '\n' && off == sealedEnd-1 {
				t.Skip()
			}
		}
		if bytes.Equal(mutated, raw) {
			t.Skip()
		}
		if _, rerr := Replay(bytes.NewReader(mutated)); rerr != nil && !errors.Is(rerr, ErrTruncatedTail) {
			return // strict Replay rejected it
		}
		mrep, verr := Verify(bytes.NewReader(mutated))
		if verr != nil {
			return
		}
		if aerr := mrep.CheckAnchor(anchor); aerr == nil {
			t.Fatalf("mutation (truncate=%v pos=%d bit=%d) accepted by Replay and anchor check", truncate, pos, bit)
		}
	})
}
