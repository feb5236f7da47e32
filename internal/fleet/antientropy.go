package fleet

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
)

// SweepReport summarizes one anti-entropy sweep.
type SweepReport struct {
	// Compared is how many replicas took part in the vote.
	Compared int `json:"compared"`
	// DivergentBits is the total bits (across participating replicas)
	// that disagreed with the majority model before repair.
	DivergentBits int `json:"divergent_bits"`
	// RepairedChunks / RepairedBits count minority chunks overwritten
	// with the majority chunk.
	RepairedChunks int `json:"repaired_chunks"`
	RepairedBits   int `json:"repaired_bits"`
	// Quarantined / Reseeded name replicas that left rotation this
	// sweep and replicas re-imaged from a donor (this sweep's
	// quarantine, or one stranded by an earlier sweep).
	Quarantined []int `json:"quarantined,omitempty"`
	Reseeded    []int `json:"reseeded,omitempty"`
	// Healthy reports whether the sweep proved the replicas
	// bit-identical (re-arming the fast path).
	Healthy bool `json:"healthy"`
}

// chunkPlan is one divergent chunk scheduled for repair on one replica.
type chunkPlan struct {
	j    int // index into the sweep's divergent chunks
	bits int // replica's disagreement with the majority
}

// SweepNow runs one anti-entropy sweep:
//
//  1. probe Down replicas; RejoinProbes consecutive healthy answers
//     earn one back into rotation;
//  2. every active replica reports per-class chunk hashes (Summary);
//  3. only chunks whose hashes disagree anywhere are fetched as bits
//     and majority-voted (bitvec.MajorityInto on the chunk slices —
//     bitwise, so identical to slicing a full majority image). Chunks
//     with identical hashes everywhere contribute zero divergence;
//  4. the worst replica, if past QuarantineDivergence, is quarantined
//     and re-seeded; every other replica's minority chunks are pushed
//     the majority image, billed to its substrate like recovery writes;
//  5. replicas stranded in quarantine by an earlier refused or failed
//     reseed are retried with this sweep's donor agreements.
//
// A sweep that finds zero divergence across every replica proves them
// bit-identical and re-arms the fast path. The periodic loop calls this
// on every tick; tests and drills call it directly.
//
// The returned error reports a sweep that could not run (shape mismatch
// between replicas, or fewer than two reachable); per-replica failures
// inside a running sweep advance the failure ladder instead.
func (co *Coordinator[Q]) SweepNow() (SweepReport, error) {
	co.aeMu.Lock()
	defer co.aeMu.Unlock()
	co.sweeps.Add(1)

	co.probeDown()

	act := co.actives()
	rep := SweepReport{Compared: len(act)}
	if len(act) < 2 {
		// Nothing to vote with; a lone replica is trivially "majority".
		rep.Healthy = len(act) == len(co.members)
		co.healthy.Store(rep.Healthy)
		co.journalAppend(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1})
		return rep, nil
	}

	// Phase 1: summaries from every active replica.
	sums := make([]*Summary, len(act))
	co.each(len(act), func(i int) {
		s, err := act[i].r.Summary(co.cfg.AntiEntropy.Chunks)
		if err != nil {
			co.noteFailure(act[i], err)
			return
		}
		co.noteSuccess(act[i])
		sums[i] = &s
	})
	act, sums = compact(act, sums, func(s *Summary) bool { return s != nil })
	rep.Compared = len(act)
	if len(act) < 2 {
		return co.tooFewReachable(rep, "summaries")
	}
	classes, dims, chunks := sums[0].Classes, sums[0].Dims, sums[0].Chunks
	for i, s := range sums {
		if s.Classes != classes || s.Dims != dims || s.Chunks != chunks {
			return rep, fmt.Errorf("fleet: replica %d shape (%d classes, D=%d, %d chunks) != replica %d (%d, %d, %d)",
				act[i].id, s.Classes, s.Dims, s.Chunks, act[0].id, classes, dims, chunks)
		}
	}

	// Phase 2: chunks whose hashes disagree anywhere. Everything else
	// is bit-identical across every replica and is never fetched.
	// Working slices are reused across sweeps (under aeMu), so a steady
	// stream of sweeps allocates almost nothing.
	refs, refChunk := co.refs[:0], co.refChunk[:0]
	for c := 0; c < classes; c++ {
		for k := 0; k < chunks; k++ {
			h0 := sums[0].Hashes[c][k]
			for _, s := range sums[1:] {
				if s.Hashes[c][k] != h0 {
					lo, hi := ChunkBounds(dims, chunks, k)
					refs = append(refs, ChunkRef{Class: c, Lo: lo, Hi: hi})
					refChunk = append(refChunk, k)
					break
				}
			}
		}
	}

	co.refs, co.refChunk = refs, refChunk
	plans := slices.Grow(co.plans[:0], len(act))[:len(act)] // index-aligned with act
	for i := range plans {
		plans[i] = plans[i][:0]
	}
	co.plans = plans
	bufs := make([][]*bitvec.Vector, len(refs))
	if len(refs) > 0 {
		// Phase 3: fetch the divergent chunks from every replica (one
		// call each) into reused buffers, then majority-vote each chunk.
		for j, ref := range refs {
			bufs[j] = co.chunkBufs(ref.Class*chunks+refChunk[j], ref.Hi-ref.Lo)
		}
		bits := make([][]*bitvec.Vector, len(act)) // replica -> ref -> bits
		for i, m := range act {
			bits[i] = make([]*bitvec.Vector, len(refs))
			for j := range refs {
				bits[i][j] = bufs[j][1+m.id]
			}
		}
		co.each(len(act), func(i int) {
			if err := act[i].r.Chunks(refs, bits[i]); err != nil {
				co.noteFailure(act[i], err)
				bits[i] = nil
				return
			}
			co.noteSuccess(act[i])
		})
		act, bits = compact(act, bits, func(v []*bitvec.Vector) bool { return v != nil })
		rep.Compared = len(act)
		if len(act) < 2 {
			return co.tooFewReachable(rep, "chunk fetches")
		}
		voters := make([]*bitvec.Vector, len(act))
		for j := range refs {
			maj := bufs[j][0]
			for i := range act {
				voters[i] = bits[i][j]
			}
			bitvec.MajorityInto(maj, voters)
			for i := range act {
				if h := bits[i][j].Hamming(maj); h > 0 {
					rep.DivergentBits += h
					plans[i] = append(plans[i], chunkPlan{j, h})
				}
			}
		}
	}

	// Phase 4: per-replica divergence; the worst offender past the
	// threshold leaves rotation. At most one replica per sweep, so a
	// quorum always stays active; chunk repair assumes damage is the
	// minority at every position, and a replica this far gone pollutes
	// the vote itself.
	totalBits := classes * dims
	worst, worstFrac := -1, 0.0
	for i, m := range act {
		divergent := 0
		for _, p := range plans[i] {
			divergent += p.bits
		}
		frac := float64(divergent) / float64(totalBits)
		m.setDivergence(frac)
		if frac > worstFrac {
			worst, worstFrac = i, frac
		}
	}
	if worst >= 0 && worstFrac > co.cfg.AntiEntropy.QuarantineDivergence {
		m := act[worst]
		co.quarantine(m, worstFrac, &rep)
		if co.reseedFrom(m, act, totalBits) {
			rep.Reseeded = append(rep.Reseeded, m.id)
		}
		plans[worst] = plans[worst][:0]
	}

	// Phase 5: push majority chunks to every disagreeing replica still
	// in rotation. A failed push just leaves divergence for the next
	// sweep; the fast path stays down either way because this sweep
	// measured disagreement.
	for i, m := range act {
		plan := plans[i]
		if len(plan) == 0 {
			continue
		}
		prefs := make([]ChunkRef, len(plan))
		imgs := make([]*bitvec.Vector, len(plan))
		for i, p := range plan {
			prefs[i], imgs[i] = refs[p.j], bufs[p.j][0]
		}
		if err := m.r.Repair(prefs, imgs); err != nil {
			co.noteFailure(m, err)
			continue
		}
		co.noteSuccess(m)
		for _, p := range plan {
			n := refs[p.j].Hi - refs[p.j].Lo
			rep.RepairedChunks++
			rep.RepairedBits += n
			m.repairedBits.Add(int64(n))
			co.journalAppend(Event{Kind: EventRepair, Replica: m.id, Class: refs[p.j].Class, Chunk: refChunk[p.j], Bits: p.bits})
		}
	}
	co.repairs.Add(int64(rep.RepairedChunks))
	co.repairBits.Add(int64(rep.RepairedBits))

	// Phase 6: retry replicas stranded in quarantine by an earlier
	// sweep, now that this sweep measured fresh donor agreements.
	for _, m := range co.members {
		if m.state.Load() == stateQuarantined && !contains(rep.Quarantined, m.id) && co.reseedFrom(m, act, totalBits) {
			rep.Reseeded = append(rep.Reseeded, m.id)
		}
	}

	// A sweep that found zero divergence across the full membership
	// proves the replicas bit-identical right now; re-arm the fast
	// path. A sweep that repaired anything leaves the flag down — the
	// repairs happened after the summaries, so identity is not proven
	// until the next clean sweep.
	rep.Healthy = rep.DivergentBits == 0 && len(rep.Quarantined) == 0 && len(act) == len(co.members)
	co.healthy.Store(rep.Healthy)
	co.journalAppend(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1, Bits: rep.DivergentBits,
		Detail: fmt.Sprintf("repaired %d chunks", rep.RepairedChunks)})
	return rep, nil
}

// chunkBufs returns the reusable width-bit buffers of one (class,
// chunk) slot, class*Chunks+chunk: [0] holds the majority, [1+id]
// replica id's fetched bits. Sweeps reuse them, so a repair sweep
// allocates almost nothing. Callers hold aeMu.
func (co *Coordinator[Q]) chunkBufs(slot, width int) []*bitvec.Vector {
	for len(co.bufs) <= slot {
		co.bufs = append(co.bufs, nil)
	}
	if b := co.bufs[slot]; len(b) > 0 && b[0].Len() == width {
		return b
	}
	b := make([]*bitvec.Vector, 1+len(co.members))
	for i := range b {
		b[i] = bitvec.New(width)
	}
	co.bufs[slot] = b
	return b
}

// tooFewReachable ends a sweep that lost its quorum of voters mid-way.
func (co *Coordinator[Q]) tooFewReachable(rep SweepReport, phase string) (SweepReport, error) {
	rep.Healthy = false
	co.healthy.Store(false)
	co.journalAppend(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1, Detail: "too few reachable members"})
	return rep, fmt.Errorf("%w: %d %s reachable, need 2", ErrNoReplicas, rep.Compared, phase)
}

// probeDown liveness-probes every Down replica once; RejoinProbes
// consecutive successes re-activate it. One probe per sweep means a
// flapping node — up for one probe, gone for the next — never
// accumulates a streak and never thrashes the rotation.
func (co *Coordinator[Q]) probeDown() {
	for _, m := range co.members {
		if m.state.Load() != stateDown {
			continue
		}
		if !m.r.Probe() {
			m.rejoinOKs = 0
			continue
		}
		m.rejoinOKs++
		if m.rejoinOKs >= co.cfg.RejoinProbes {
			m.rejoinOKs = 0
			m.consecFails.Store(0)
			m.state.Store(stateActive)
			m.rejoins.Add(1)
			// The returnee's model is whatever it restarted with; this
			// sweep will measure it and repair or quarantine as needed.
			co.healthy.Store(false)
			co.journalAppend(Event{Kind: EventActivate, Replica: m.id, Class: -1, Chunk: -1,
				Detail: "rejoined after probes"})
		}
	}
}

// quarantine pulls one replica from rotation.
func (co *Coordinator[Q]) quarantine(m *member[Q], frac float64, rep *SweepReport) {
	m.state.Store(stateQuarantined)
	m.quarantines.Add(1)
	co.quarantines.Add(1)
	co.healthy.Store(false)
	rep.Quarantined = append(rep.Quarantined, m.id)
	co.journalAppend(Event{Kind: EventQuarantine, Replica: m.id, Class: -1, Chunk: -1,
		Detail: fmt.Sprintf("divergence %.4f", frac)})
}

// reseedFrom re-images a quarantined replica from the most-agreeing
// active donor via its stamped, CRC-sealed snapshot and returns it to
// rotation, reporting whether that happened. The stamp is the donor's
// agreement with the majority (1 - divergence) from this sweep; a donor
// below MinReseedAgreement is refused — re-imaging from a suspect donor
// would launder its corruption into a "fresh" replica — and the replica
// stays quarantined for a later sweep to retry.
func (co *Coordinator[Q]) reseedFrom(m *member[Q], act []*member[Q], totalBits int) bool {
	var donor *member[Q]
	donorAgree := -1.0
	for _, cand := range act {
		if cand == m {
			continue
		}
		if agree := 1 - cand.getDivergence(); agree > donorAgree {
			donor, donorAgree = cand, agree
		}
	}
	if donor == nil || donorAgree < co.cfg.AntiEntropy.MinReseedAgreement {
		return false
	}
	// Donor-trust gate: a donor whose own journal does not verify may
	// be serving a rewritten healing history, and its snapshot will be
	// anchored to that forged lineage — refuse to re-image anyone from
	// it. Journal-less donors (Enabled=false) pass: they make no
	// lineage claim to be checked.
	if jv, err := donor.r.JournalVerify(); err != nil {
		co.noteFailure(donor, err)
		return false
	} else if jv.Enabled && !jv.OK {
		co.journalAppend(Event{Kind: EventReseed, Replica: m.id, Class: -1, Chunk: -1,
			Detail: fmt.Sprintf("refused donor %d: journal does not verify: %s", donor.id, jv.Error)})
		return false
	}
	img, err := donor.r.Snapshot(donorAgree)
	if err != nil {
		co.noteFailure(donor, err)
		return false
	}
	co.noteSuccess(donor)
	if err := m.r.Reseed(img); err != nil {
		co.noteFailure(m, err)
		return false
	}
	co.noteSuccess(m)
	m.reseeds.Add(1)
	co.reseeds.Add(1)
	co.journalAppend(Event{Kind: EventReseed, Replica: m.id, Class: -1, Chunk: -1,
		Bits: totalBits, Detail: fmt.Sprintf("donor %d agreement %.4f", donor.id, donorAgree)})
	m.state.Store(stateActive)
	co.journalAppend(Event{Kind: EventActivate, Replica: m.id, Class: -1, Chunk: -1})
	return true
}

func contains(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// compact drops replicas whose fetch failed (ok rejects the slot),
// keeping the two slices index-aligned.
func compact[Q, T any](ms []*member[Q], got []T, ok func(T) bool) ([]*member[Q], []T) {
	outM := make([]*member[Q], 0, len(ms))
	outG := make([]T, 0, len(got))
	for i, g := range got {
		if ok(g) {
			outM = append(outM, ms[i])
			outG = append(outG, g)
		}
	}
	return outM, outG
}
