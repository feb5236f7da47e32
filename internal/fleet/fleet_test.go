package fleet

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/substrate"
)

// manualTick keeps background loops effectively disabled so tests
// drive scrubbing and sweeps deterministically.
const manualTick = 24 * time.Hour

// fleetProblem trains a small shared seed system once.
var fleetProblem struct {
	once sync.Once
	ds   *dataset.Dataset
	sys  *core.System
	err  error
}

func problem(t testing.TB) (*dataset.Dataset, *core.System) {
	t.Helper()
	p := &fleetProblem
	p.once.Do(func() {
		spec, ok := dataset.ByName("PAMAP")
		if !ok {
			p.err = errNoSpec
			return
		}
		spec.TrainSize, spec.TestSize = 300, 150
		ds, err := dataset.Generate(spec)
		if err != nil {
			p.err = err
			return
		}
		sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 4096, Seed: 7})
		if err != nil {
			p.err = err
			return
		}
		p.ds, p.sys = ds, sys
	})
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.ds, p.sys
}

var errNoSpec = errors.New("fleet: no PAMAP spec")

func newFleet(t testing.TB, sys *core.System, cfg Config) *Fleet {
	t.Helper()
	f, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{Replicas: -1},
		{Replicas: maxReplicas + 1},
		{Replicas: 3, Quorum: 4},
		{Quorum: -2},
		{AntiEntropy: AntiEntropyConfig{QuarantineDivergence: math.NaN()}},
		{AntiEntropy: AntiEntropyConfig{QuarantineDivergence: math.Inf(1)}},
		{AntiEntropy: AntiEntropyConfig{QuarantineDivergence: 1.5}},
		{AntiEntropy: AntiEntropyConfig{MinReseedAgreement: math.NaN()}},
		{AntiEntropy: AntiEntropyConfig{MinReseedAgreement: -0.5}},
		// Settings the transport would silently ignore.
		{Timeout: time.Second},
		{Retries: 1},
		{RejoinProbes: 4},
		{Nodes: []string{"http://a"}, Replicas: 1},
		{Nodes: []string{"http://a"}, Seed: 7},
		{Nodes: []string{"http://a"}, ScrubTick: time.Second},
		{Nodes: []string{"http://a"}, Substrate: &substrate.Config{Kind: "endurance"}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	_, sys := problem(t)
	if _, err := New(sys, Config{Nodes: []string{"http://a"}}); err == nil {
		t.Error("New accepted Nodes, which only NewCluster reads")
	}
}

// TestQuorumMatchesSingleModelWhenInSync is the bit-identical
// acceptance criterion: while every replica holds the same bits, both
// the fast path and the forced quorum path must answer exactly what
// the seed model answers.
func TestQuorumMatchesSingleModelWhenInSync(t *testing.T) {
	ds, sys := problem(t)
	f := newFleet(t, sys, Config{Replicas: 3, Seed: 11})

	encoded := sys.EncodeAll(ds.TestX[:64])
	wantC := make([]int, len(encoded))
	wantF := make([]float64, len(encoded))
	for i, q := range encoded {
		wantC[i], wantF[i] = sys.Model().PredictWithConfidence(q, 0)
	}

	check := func(path string) {
		got, confs, err := f.ScoreBatch(encoded, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != wantC[i] || confs[i] != wantF[i] {
				t.Fatalf("%s path: query %d: got (%d, %v), want (%d, %v)",
					path, i, got[i], confs[i], wantC[i], wantF[i])
			}
		}
	}
	if !f.Healthy() {
		t.Fatal("fresh fleet not healthy")
	}
	check("fast")
	// Force the quorum path without introducing divergence.
	f.healthy.Store(false)
	check("quorum")
	if f.Status().QuorumPredicts == 0 {
		t.Fatal("quorum path did not run")
	}
}

// TestQuorumMasksCorruptedReplica is the fleet's reason to exist: with
// 3 replicas and one heavily corrupted, quorum accuracy must track the
// healthy model while the corrupted replica alone collapses.
func TestQuorumMasksCorruptedReplica(t *testing.T) {
	ds, sys := problem(t)
	f := newFleet(t, sys, Config{Replicas: 3, Seed: 11})

	encoded := sys.EncodeAll(ds.TestX)
	clean := accuracyOf(t, f, encoded, ds.TestY)

	if err := f.WithReplica(0, func(s *core.System) error {
		_, err := s.AttackRandom(0.45, 99)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	r0, _ := f.replica(0)
	r0.mu.RLock()
	attacked := r0.sys.Model().AccuracyParallel(encoded, ds.TestY, 0)
	r0.mu.RUnlock()

	quorum := accuracyOf(t, f, encoded, ds.TestY)
	if attacked > clean-0.05 {
		t.Fatalf("attack too weak to test masking: attacked %.3f vs clean %.3f", attacked, clean)
	}
	if quorum < clean-0.01 {
		t.Fatalf("quorum accuracy %.3f fell more than 1pt below clean %.3f", quorum, clean)
	}
	if f.Status().Escalations == 0 {
		t.Fatal("no escalations despite a corrupted quorum member possibility")
	}
}

func accuracyOf(t *testing.T, f *Fleet, encoded []*bitvec.Vector, labels []int) float64 {
	t.Helper()
	classes, _, err := f.ScoreBatch(encoded, 0)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i, c := range classes {
		if c == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(labels))
}

// TestSweepRepairsMinorityChunksAndBillsWrites checks the anti-entropy
// contract end to end: a corrupted replica converges back to the
// majority model, and every repaired bit is billed to its substrate as
// write traffic (observable because the endurance process counts
// WritesCharged).
func TestSweepRepairsMinorityChunksAndBillsWrites(t *testing.T) {
	_, sys := problem(t)
	f := newFleet(t, sys, Config{
		Replicas:  3,
		Seed:      11,
		ScrubTick: manualTick,
		Substrate: &substrate.Config{Kind: "endurance"},
		// Divergence from a 2% attack stays far below the quarantine
		// threshold, so this exercises pure chunk repair.
		AntiEntropy: AntiEntropyConfig{Chunks: 32, QuarantineDivergence: 0.5},
	})

	if err := f.WithReplica(1, func(s *core.System) error {
		_, err := s.AttackRandom(0.02, 5)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	r1, _ := f.replica(1)
	before := replicaWrites(r1)

	rep := sweep(t, f)
	if rep.RepairedChunks == 0 || rep.DivergentBits == 0 {
		t.Fatalf("sweep repaired nothing: %+v", rep)
	}
	if got := replicaWrites(r1) - before; got < int64(rep.RepairedBits)/2 {
		t.Fatalf("repair writes not billed: %d charged for %d repaired bits on replica 1", got, rep.RepairedBits)
	}

	// After repair the replicas must be bit-identical again: the next
	// sweep finds zero divergence and re-arms the fast path.
	rep2 := sweep(t, f)
	if rep2.DivergentBits != 0 || !rep2.Healthy {
		t.Fatalf("fleet did not converge: %+v", rep2)
	}
	if !f.Healthy() {
		t.Fatal("fast path not re-armed after clean sweep")
	}

	// And the converged model equals the majority of the pre-repair
	// states — with one 2%-corrupted minority replica, that majority is
	// the two untouched replicas, i.e. the seed model.
	r0, _ := f.replica(0)
	for c := 0; c < sys.Classes(); c++ {
		r1.mu.RLock()
		d := r1.sys.Model().ClassVector(c).Hamming(sys.Model().ClassVector(c))
		r1.mu.RUnlock()
		if d != 0 {
			t.Fatalf("class %d: repaired replica still %d bits from seed", c, d)
		}
		r0.mu.RLock()
		d = r0.sys.Model().ClassVector(c).Hamming(sys.Model().ClassVector(c))
		r0.mu.RUnlock()
		if d != 0 {
			t.Fatalf("class %d: healthy replica perturbed by sweep (%d bits)", c, d)
		}
	}
}

// sweep runs one anti-entropy sweep; in-process sweeps cannot fail.
func sweep(t testing.TB, f *Fleet) SweepReport {
	t.Helper()
	rep, err := f.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func replicaWrites(r *localReplica) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.sub == nil {
		return 0
	}
	return r.sub.Stats().WritesCharged
}

// TestQuarantineReseedsFromDonor drives a replica past the divergence
// threshold and checks the full lifecycle: quarantine, re-image from
// the best donor's stamped snapshot, return to rotation, journal
// timeline intact.
func TestQuarantineReseedsFromDonor(t *testing.T) {
	_, sys := problem(t)
	journalBuf := &syncBuffer{}
	f := newFleet(t, sys, Config{
		Replicas:  3,
		Seed:      11,
		ScrubTick: manualTick,
		Substrate: &substrate.Config{Kind: "endurance"},
		AntiEntropy: AntiEntropyConfig{
			Chunks:               32,
			QuarantineDivergence: 0.05,
		},
		Journal: NewJournal(journalBuf),
	})

	if err := f.WithReplica(2, func(s *core.System) error {
		_, err := s.AttackRandom(0.30, 5)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rep := sweep(t, f)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 2 {
		t.Fatalf("expected replica 2 quarantined, got %+v", rep)
	}
	if len(rep.Reseeded) != 1 || rep.Reseeded[0] != 2 {
		t.Fatalf("expected replica 2 reseeded, got %+v", rep)
	}
	r2, _ := f.replica(2)
	if st := f.Status().Replicas[2].State; st != "active" {
		t.Fatal("reseeded replica not back in rotation")
	}
	for c := 0; c < sys.Classes(); c++ {
		r2.mu.RLock()
		d := r2.sys.Model().ClassVector(c).Hamming(sys.Model().ClassVector(c))
		r2.mu.RUnlock()
		if d != 0 {
			t.Fatalf("class %d: reseeded replica still %d bits from donor", c, d)
		}
	}
	// Reseed is a full-image rewrite: classes*dims writes billed.
	if got := replicaWrites(r2); got < int64(sys.Classes()*sys.Dimensions()) {
		t.Fatalf("reseed writes not billed: %d < %d", got, sys.Classes()*sys.Dimensions())
	}

	events, err := Replay(journalBuf.Reader())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range events {
		if e.Replica == 2 {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []string{EventQuarantine, EventReseed, EventActivate}
	if len(kinds) < len(want) {
		t.Fatalf("journal kinds for replica 2 = %v, want %v", kinds, want)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("journal kinds for replica 2 = %v, want prefix %v", kinds, want)
		}
	}
}

// TestStrandedQuarantineIsRetried pins the retry of a replica whose
// reseed was refused: with no donor clearing MinReseedAgreement the
// quarantined replica must not stay out forever — once the survivors
// converge, a later sweep re-seeds it and the fast path re-arms.
func TestStrandedQuarantineIsRetried(t *testing.T) {
	_, sys := problem(t)
	f := newFleet(t, sys, Config{
		Replicas:        3,
		Seed:            11,
		DisableRecovery: true,
		AntiEntropy:     AntiEntropyConfig{MinReseedAgreement: 0.9999},
	})
	for id, rate := range []float64{0.002, 0.002, 0.30} {
		if err := f.WithReplica(id, func(s *core.System) error {
			_, err := s.AttackRandom(rate, uint64(id)+5)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep := sweep(t, f)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 2 || len(rep.Reseeded) != 0 {
		t.Fatalf("first sweep %+v, want replica 2 quarantined with its reseed refused", rep)
	}
	for i := 0; i < 3 && !f.Healthy(); i++ {
		sweep(t, f)
	}
	if st := f.Status(); st.Replicas[2].State != "active" || !st.Healthy {
		t.Fatalf("after 4 sweeps replica 2 is %q (divergence %.4f), healthy %v; want active and re-armed",
			st.Replicas[2].State, st.Replicas[2].Divergence, st.Healthy)
	}
}

// TestObserveBillsRecoveryWrites routes trusted queries through the
// fleet's recovery hook after corrupting a replica and checks the
// substitutions are charged to that replica's substrate.
func TestObserveBillsRecoveryWrites(t *testing.T) {
	ds, sys := problem(t)
	f := newFleet(t, sys, Config{
		Replicas:  3,
		Seed:      11,
		ScrubTick: manualTick,
		Substrate: &substrate.Config{Kind: "endurance"},
	})
	if err := f.WithReplica(0, func(s *core.System) error {
		_, err := s.AttackBurst(0.2, 0.9, 7)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var before int64
	for _, r := range f.replicas {
		before += replicaWrites(r)
	}
	encoded := sys.EncodeAll(ds.TrainX)
	for _, q := range encoded {
		f.Observe(q)
	}
	var after int64
	for _, r := range f.replicas {
		after += replicaWrites(r)
	}
	if after <= before {
		t.Fatal("recovery substitutions were not billed to any substrate")
	}
	st := f.Status()
	var recTrusted int
	for _, rs := range st.Replicas {
		if rs.Recovery != nil {
			recTrusted += rs.Recovery.Trusted
		}
	}
	if recTrusted == 0 {
		t.Fatal("no trusted observations recorded")
	}
}

// TestScrubAdvanceDisarmsFastPath checks substrate flips clear the
// healthy flag so subsequent predictions are voted.
func TestScrubAdvanceDisarmsFastPath(t *testing.T) {
	_, sys := problem(t)
	f := newFleet(t, sys, Config{
		Replicas:  3,
		Seed:      11,
		ScrubTick: manualTick,
		Substrate: &substrate.Config{Kind: "adversarial", RatePerStep: 0.01, StepEvery: time.Millisecond},
	})
	if !f.Healthy() {
		t.Fatal("fresh fleet not healthy")
	}
	flipped, err := f.AdvanceReplica(0, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if flipped == 0 {
		t.Fatal("campaign advance flipped nothing")
	}
	if f.Healthy() {
		t.Fatal("fast path still armed after substrate flips")
	}
}

// syncBuffer is a goroutine-safe bytes buffer for journal tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *syncBuffer) Reader() *bytes.Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.NewReader(append([]byte(nil), b.buf...))
}
