package fleet

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/hdc/model"
	"repro/internal/recovery"
	"repro/internal/substrate"
)

// localReplica is one in-process fleet member: an independent fork of
// the seed system (private deployed class vectors, shared immutable
// encoder), its own recoverer, and its own fault process. Divergence
// between replicas comes exactly from here — each fault process samples
// its own weak cells and victims, so the same physical campaign damages
// each copy differently, which is what quorum voting and majority
// repair exploit.
type localReplica struct {
	// mu is the replica's single-writer model lock, the same discipline
	// as serve.Server.mu: recovery observation, fault advances, repairs,
	// and reseeds take it exclusive; donor serialization and status
	// take it shared. Scoring, summaries and chunk fetches do NOT take
	// it — they read chain, the replica's RCU epoch publication point,
	// and every writer publishes its mutation in the same critical
	// section. mu is the innermost lock in the fleet — nothing is
	// acquired under it.
	mu    sync.RWMutex
	sys   *core.System
	rec   *recovery.Recoverer
	sub   substrate.FaultProcess
	chain *model.EpochChain

	// faultBits counts substrate flips applied by this replica's scrubber.
	faultBits atomic.Int64
	// sum caches the Summary of epoch sumEpoch for the next sweep
	// (sweeps are serialized, so it needs no lock). An epoch's image is
	// immutable, and holding the pointer keeps any later epoch from
	// reusing its address.
	sum      Summary
	sumEpoch *model.Epoch
}

// Score classifies already-encoded queries on the current epoch,
// lock-free. It cannot fail.
func (r *localReplica) Score(qs []*bitvec.Vector, temperature float64) ([]int, []float64, error) {
	classes := make([]int, len(qs))
	confs := make([]float64, len(qs))
	ep := r.chain.Acquire()
	img := ep.Frozen()
	for i, q := range qs {
		classes[i], confs[i] = img.PredictWithConfidence(q, temperature)
	}
	ep.Release()
	return classes, confs, nil
}

// Summary hashes the current epoch, or returns the cached summary when
// no write has been published since the last sweep.
func (r *localReplica) Summary(chunks int) (Summary, error) {
	ep := r.chain.Acquire()
	defer ep.Release()
	if ep != r.sumEpoch || r.sum.Chunks != chunks {
		r.sum, r.sumEpoch = SummaryOf(ep.Frozen(), chunks), ep
	}
	return r.sum, nil
}

func (r *localReplica) Chunks(refs []ChunkRef, dst []*bitvec.Vector) error {
	ep := r.chain.Acquire()
	defer ep.Release()
	img := ep.Frozen()
	for i, ref := range refs {
		img.ClassVector(ref.Class).SliceInto(dst[i], ref.Lo)
	}
	return nil
}

func (r *localReplica) Repair(refs []ChunkRef, images []*bitvec.Vector) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	RepairChunks(r.sys.Model(), refs, images, r.sub, r.chain)
	return nil
}

func (r *localReplica) Snapshot(stamp float64) ([]byte, error) {
	var buf bytes.Buffer
	r.mu.RLock()
	err := r.sys.SaveStamped(&buf, stamp)
	r.mu.RUnlock()
	return buf.Bytes(), err
}

// Reseed re-images the replica from a donor's stamped image.
func (r *localReplica) Reseed(image []byte) error {
	donor, _, err := core.LoadStamped(bytes.NewReader(image))
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	Reimage(r.sys, donor, r.sub, r.chain)
	return nil
}

// Probe: an in-process replica is always reachable.
func (r *localReplica) Probe() bool { return true }

// JournalVerify: in-process replicas share the fleet's journal and make
// no lineage claim of their own.
func (r *localReplica) JournalVerify() (JournalVerifyResponse, error) {
	return JournalVerifyResponse{}, nil
}

// Fleet is the replication engine over in-process replicas, plus the
// hooks only an in-process replica has: recovery observation, fault
// advances, and direct access for drills.
type Fleet struct {
	*Coordinator[*bitvec.Vector]
	replicas []*localReplica
}

// New builds a fleet of cfg.Replicas forks of seed. The seed system
// itself is never attacked or mutated — callers keep using it for
// encoding (the encoder is immutable and shared by every fork, so a
// query encoded once scores identically on any replica).
func New(seed *core.System, cfg Config) (*Fleet, error) {
	if seed == nil {
		return nil, errors.New("fleet: nil seed system")
	}
	if len(cfg.Nodes) > 0 {
		return nil, errors.New("fleet: New builds in-process replicas; NewCluster takes Nodes")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	f := &Fleet{}
	transports := make([]Replica[*bitvec.Vector], cfg.Replicas)
	for i := range transports {
		r := &localReplica{sys: seed.Fork()}
		r.chain = model.NewEpochChain(r.sys.Model())
		if !cfg.DisableRecovery {
			rec, err := r.sys.NewRecoverer(cfg.Recovery, derivedSeed(cfg.Seed, i, 0x7ec0))
			if err != nil {
				return nil, err
			}
			r.rec = rec
		}
		if cfg.Substrate != nil {
			sc := *cfg.Substrate
			sc.Seed = derivedSeed(cfg.Seed, i, 0x50b5)
			p, err := substrate.New(sc, r.sys.AttackImage())
			if err != nil {
				return nil, err
			}
			r.sub = p
		}
		f.replicas = append(f.replicas, r)
		transports[i] = r
	}
	// Forks of one seed are provably identical: the fast path starts armed.
	f.Coordinator = newCoordinator(cfg, transports, true, false)
	if cfg.Substrate != nil {
		for id := range f.replicas {
			f.every(cfg.ScrubTick, func(elapsed time.Duration) { _, _ = f.AdvanceReplica(id, elapsed) })
		}
	}
	return f, nil
}

// derivedSeed decorrelates per-replica randomness: same campaign
// parameters, different weak cells and victims per replica.
func derivedSeed(base uint64, id int, salt uint64) uint64 {
	x := base ^ salt ^ (uint64(id)+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x | 1 // never 0: several constructors treat 0 as "default"
}

// ConfidenceGate returns the recovery confidence threshold the fleet's
// replicas trust pseudo-labels at (callers gate Trusted with it).
func (f *Fleet) ConfidenceGate() float64 { return f.cfg.Recovery.ConfidenceThreshold }

// Observe feeds one trusted query to a replica's recoverer (round-
// robin over actives), billing substitution writes to that replica's
// substrate. This is the fleet analogue of serve's recovery loop; the
// fleet stays in rotation while the replica self-heals because only
// one replica's write lock is held.
func (f *Fleet) Observe(q *bitvec.Vector) {
	act := f.actives()
	if len(act) == 0 {
		return
	}
	id := act[f.cursor.Add(1)%uint64(len(act))].id
	r := f.replicas[id]
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rec == nil || q.Len() != r.sys.Dimensions() {
		return
	}
	before := r.rec.Stats().BitsSubstituted
	pred, updated := r.rec.Observe(q)
	if !updated {
		return
	}
	// Observe substitutes chunks only inside the predicted class's
	// hypervector: publish that one class as a new epoch, still under
	// this replica's write lock.
	r.chain.Publish(r.sys.Model(), []int{pred})
	if d := r.rec.Stats().BitsSubstituted - before; d > 0 {
		if r.sub != nil {
			r.sub.NoteWrites(d)
		}
		f.healthy.Store(false)
		f.journalAppend(Event{Kind: EventRecovery, Replica: id, Class: -1, Chunk: -1, Bits: d})
	}
}

// AdvanceReplica advances one replica's fault process by elapsed
// simulated wall time under its write lock — the deterministic drill
// hook mirroring serve.ScrubNow. It is a no-op without a substrate.
func (f *Fleet) AdvanceReplica(id int, elapsed time.Duration) (int, error) {
	r, err := f.replica(id)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sub == nil {
		return 0, nil
	}
	res, err := r.sub.Advance(elapsed)
	if res.BitsFlipped > 0 {
		r.faultBits.Add(int64(res.BitsFlipped))
		f.healthy.Store(false)
		// The fault process may have hit any class: full reimage.
		r.chain.Publish(r.sys.Model(), nil)
	}
	return res.BitsFlipped, err
}

// WithReplica runs fn with exclusive access to one replica's system —
// the hook attack drills use to corrupt a single fleet member. Any
// external mutation invalidates the fast path.
func (f *Fleet) WithReplica(id int, fn func(*core.System) error) error {
	r, err := f.replica(id)
	if err != nil {
		return err
	}
	f.healthy.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	err = fn(r.sys)
	// fn may have rewritten anything (attack drills do): full reimage.
	r.chain.Publish(r.sys.Model(), nil)
	return err
}

func (f *Fleet) replica(id int) (*localReplica, error) {
	if _, err := f.member(id); err != nil {
		return nil, err
	}
	return f.replicas[id], nil
}

// fillStatus adds the in-process replica's fault and recovery counters
// to its status. It takes the read lock to get coherent substrate
// stats (Stats races with Advance otherwise).
func (r *localReplica) fillStatus(rs *ReplicaStatus) {
	rs.FaultBits = r.faultBits.Load()
	r.mu.RLock()
	if r.sub != nil {
		s := r.sub.Stats()
		rs.Substrate = &s
	}
	r.mu.RUnlock()
	if r.rec != nil {
		s := r.rec.Stats()
		rs.Recovery = &s
	}
}
