// Package serve turns a trained core.System into a long-lived online
// inference service — the setting the paper's threat model actually
// describes. In-memory HDC deployments are always-on inference
// engines, bit-flip attacks on deployed class memory are an online
// phenomenon, and the adaptive recovery loop is a *runtime* mechanism:
// it belongs in the request path, not in a batch script.
//
// The server wires four pieces around one System:
//
//   - A sharded worker pool batches incoming predictions and encodes
//     them via EncodeAllParallel (pool.go). Encoding is lock-free —
//     the encoder is derived from (seed, config) and immutable — so
//     the heavy work never touches the model lock.
//   - A background recovery goroutine feeds high-confidence queries
//     into recovery.Recoverer.Observe under the single-writer model
//     lock, so the deployed class hypervectors self-heal while the
//     server keeps answering queries.
//   - Operational endpoints (handlers.go): /predict, /train,
//     /snapshot + /restore checkpointing, /attack fault-injection
//     drills, /metrics and /healthz.
//   - Graceful shutdown: Close drains the pool (every accepted
//     request gets an answer), then drains the recovery queue, then
//     stops the probe loop.
//
// Concurrency model — RCU epoch snapshots (DESIGN.md §"RCU read
// path"): the serving read path takes NO lock. The installed system
// and its scoring image live behind an atomic pointer (Server.live);
// each batch acquires the current model epoch (model.EpochChain, one
// atomic increment), scores every query against that immutable frozen
// image, and releases it. Writers — recovery observations, substrate
// scrub ticks, attack drills, retrain applies, rollbacks, node
// repairs/reseeds — mutate the live model under the single writer
// mutex s.mu and publish the change as a new epoch in the same
// critical section, cloning only the class vectors they dirtied.
// Superseded epochs return their private vectors to a pool once the
// last in-flight reader drains, keeping the steady-state hot path
// allocation-free. Online retraining (RetrainOnline) accumulates its
// per-epoch mistake deltas against a snapshot with no lock held,
// taking s.mu only for the microsecond snapshot and the final merge +
// binarize swap.
package serve

import (
	"errors"
	"fmt"
	"time"

	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hdc/model"
	"repro/internal/recovery"
	"repro/internal/substrate"
)

// Errors surfaced by the serving path.
var (
	// ErrClosed reports a request arriving after Close began.
	ErrClosed = errors.New("serve: server closed")
	// ErrNoModel reports a request before any model was installed.
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrBadInput reports a malformed prediction request.
	ErrBadInput = errors.New("serve: bad input")
)

// Config parameterizes the server.
type Config struct {
	// Shards is the number of independent batching workers (default
	// 4, capped at GOMAXPROCS by the pool). Each shard accumulates
	// its own batch, so shards bound both parallelism and tail
	// latency spread.
	Shards int
	// BatchSize is the largest batch a shard encodes at once
	// (default 64).
	BatchSize int
	// BatchWindow bounds how long a shard waits for a batch to fill
	// before flushing a partial one (default 2ms). The wait is
	// adaptive: a shard lingers only while more submissions are in
	// flight, so an idle or lone client is served immediately and
	// never pays the window as latency.
	BatchWindow time.Duration
	// QueueDepth is the per-shard request queue (default 4×BatchSize).
	// Submissions block once it fills — backpressure, not load
	// shedding.
	QueueDepth int
	// EncodeWorkers caps the goroutines encoding one batch (<= 0
	// selects GOMAXPROCS).
	EncodeWorkers int

	// DisableRecovery turns the background self-healing loop off
	// (used by benchmarks and as an experimental control).
	DisableRecovery bool
	// Recovery parameterizes the recovery loop; the zero value
	// selects recovery.DefaultConfig().
	Recovery recovery.Config
	// RecoveryQueue is the capacity of the trusted-query buffer
	// between the serving path and the recovery goroutine (default
	// 1024). When it is full, queries are dropped and counted —
	// recovery is best-effort and must never add backpressure to
	// serving.
	RecoveryQueue int
	// RecoverySeed drives the recovery loop's substitution RNG.
	RecoverySeed uint64

	// ProbeInterval is how often the held-out accuracy probe runs (0
	// disables the periodic probe; ProbeNow is always available).
	ProbeInterval time.Duration

	// Substrate mounts the deployed model on a continuously faulting
	// simulated memory substrate (nil disables it). The scrubber
	// advances the fault process every ScrubTick under the exclusive
	// model lock, and the recovery loop's substitution writes are
	// charged to it as wear traffic.
	Substrate *substrate.Config
	// ScrubTick is the substrate scrubber period (default 100ms).
	ScrubTick time.Duration
	// Watchdog parameterizes the degradation watchdog; its Interval
	// enables the periodic loop (WatchdogNow is always available).
	// Mutually exclusive with Fleet — the fleet's quarantine/reseed
	// lifecycle supersedes the single-model watchdog ladder.
	Watchdog WatchdogConfig

	// Fleet replicates the installed model across N independently
	// faulting replicas behind quorum inference and anti-entropy
	// repair (nil keeps the single-model path). The server's Recovery,
	// Substrate, ScrubTick, and Journal settings flow into the fleet
	// config wherever the fleet config leaves them zero; in fleet mode
	// the server itself mounts no substrate and runs no scrubber — each
	// replica carries its own.
	Fleet *fleet.Config

	// Journal receives lifecycle events — watchdog transitions in
	// single-model mode, plus the fleet's repair/quarantine/reseed
	// stream in fleet mode (nil drops them).
	Journal *fleet.Journal

	// ModelID tags this server's journal events with a tenant model id
	// for multi-model processes (internal/registry). Events are stamped
	// at the source — not via Journal.SetModelTag — so every tenant in a
	// registry can share one journal without clobbering each other's
	// default tag. Empty leaves events untagged — the default tenant —
	// so single-model journals are byte-identical to what they were
	// before tenancy existed.
	ModelID string

	// NodeAPI mounts the /node/* cluster-node endpoints: raw local
	// scoring, chunk-hash summaries, chunk fetch/repair, and snapshot/
	// reseed streaming for a networked coordinator (fleet.Cluster).
	// Mutually exclusive with Fleet — a node IS one replica; stacking a
	// local fleet under a networked one would double-replicate.
	NodeAPI bool
}

func (c *Config) fillDefaults() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.BatchSize
	}
	if c.Recovery == (recovery.Config{}) {
		c.Recovery = recovery.DefaultConfig()
	}
	if c.RecoveryQueue <= 0 {
		c.RecoveryQueue = 1024
	}
	if c.RecoverySeed == 0 {
		c.RecoverySeed = 1
	}
	if c.ScrubTick <= 0 {
		c.ScrubTick = 100 * time.Millisecond
	}
	c.Watchdog.fillDefaults()
}

// Prediction is one served classification.
type Prediction struct {
	// Class is the predicted label.
	Class int `json:"class"`
	// Confidence is the normalized softmax confidence in (1/k, 1],
	// on the same scale as recovery.Config.ConfidenceThreshold (see
	// core.System.PredictWithConfidence).
	Confidence float64 `json:"confidence"`
	// Trusted reports whether the confidence cleared the recovery
	// gate — i.e. whether this query was handed to the self-healing
	// loop as a pseudo-label.
	Trusted bool `json:"trusted"`
}

// liveState is everything one /train or /restore installs as a unit:
// the system, its recoverer and fault process, the replica fleet
// (fleet mode), and the epoch chain readers score through
// (single-model mode; fleet replicas carry their own chains). Readers
// load the pointer once and get a mutually consistent view; writers
// mutate the *contents* under s.mu and publish model changes as
// epochs. The struct itself is immutable after install — a new
// install builds a fresh liveState and swaps the pointer, abandoning
// the old one (and its chain) to in-flight readers and the GC.
type liveState struct {
	sys *core.System
	rec *recovery.Recoverer
	sub substrate.FaultProcess
	// flt is the replica fleet (fleet mode only). In fleet mode sys is
	// the pristine seed — encoding still goes through it, but scoring,
	// recovery, and fault processes live on the fleet's forks, each
	// behind its own replica lock and epoch chain.
	flt *fleet.Fleet
	// chain is the RCU publication point for the deployed model
	// (single-model mode; nil in fleet mode).
	chain *model.EpochChain
	// subStats is the latest substrate counter snapshot, republished
	// by every writer that touched the fault process so /metrics never
	// needs s.mu (substrate.Stats() itself is not thread-safe).
	subStats atomic.Pointer[substrate.Stats]
}

// Server is an online inference service over a core.System.
type Server struct {
	cfg     Config
	start   time.Time
	metrics metrics

	// live is the atomically published installed state; the read path
	// loads it without any lock. Nil until the first install.
	live atomic.Pointer[liveState]

	// mu is the single-WRITER mutex over the live state's contents:
	// recovery observations, scrub ticks, attack drills, retrain
	// applies, rollbacks, node repairs/reseeds, snapshot
	// serialization, and the install swap all hold it. Readers never
	// touch it — they go through live + the epoch chain.
	mu sync.Mutex

	// wd is the degradation watchdog's state; wd.mu nests OUTSIDE s.mu
	// (watchdog code locks wd.mu first, then s.mu — never the reverse).
	wd watchdogState

	// trainMu serializes online retrains (RetrainOnline); like wd.mu
	// it nests OUTSIDE s.mu and is never acquired while s.mu is held.
	trainMu sync.Mutex

	pool  *pool
	recCh chan *bitvec.Vector

	probeMu sync.Mutex
	probeX  [][]float64
	probeY  []int

	done   chan struct{}
	bg     sync.WaitGroup
	closed atomic.Bool
}

// New starts a server. sys may be nil: the server then answers
// ErrNoModel until /train or /restore installs one.
func New(sys *core.System, cfg Config) (*Server, error) {
	if err := cfg.Watchdog.validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.Fleet != nil {
		if cfg.Watchdog.Interval > 0 {
			return nil, errors.New("serve: fleet mode and the watchdog loop are mutually exclusive (quarantine/reseed supersedes the watchdog ladder)")
		}
		if cfg.NodeAPI {
			return nil, errors.New("serve: fleet mode and the node API are mutually exclusive (a cluster node is itself one replica)")
		}
		if err := cfg.Fleet.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		recCh: make(chan *bitvec.Vector, cfg.RecoveryQueue),
		done:  make(chan struct{}),
	}
	if sys != nil {
		if err := s.install(sys); err != nil {
			return nil, err
		}
	}
	s.pool = newPool(s, cfg.Shards, cfg.QueueDepth)
	s.bg.Add(1)
	go s.recoveryLoop()
	if cfg.ProbeInterval > 0 {
		s.bg.Add(1)
		go s.probeLoop()
	}
	if cfg.Substrate != nil && cfg.Fleet == nil {
		s.bg.Add(1)
		go s.scrubLoop()
	}
	if cfg.Watchdog.Interval > 0 {
		s.bg.Add(1)
		go s.watchdogLoop()
	}
	return s, nil
}

// install wires a system (plus a fresh recoverer over its model, a
// fresh fault process over its attack image, and a fresh epoch chain)
// into a new liveState and publishes it with one pointer swap. The old
// state — checkpoint, watchdog posture, epoch chain — is abandoned: it
// describes a model that no longer exists, and in-flight readers of
// the old chain drain out on their own.
func (s *Server) install(sys *core.System) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if sys.Backend() != "dense" {
		// Compressed backends have no per-class vectors to replicate,
		// repair chunk-by-class, or substitute into — the robustness cost
		// of compression the experiments measure. They still serve, scrub,
		// snapshot, roll back, and take attack drills.
		if s.cfg.Fleet != nil {
			return fmt.Errorf("serve: fleet replication requires the dense backend, got %q", sys.Backend())
		}
		if s.cfg.NodeAPI {
			return fmt.Errorf("serve: the node API requires the dense backend, got %q", sys.Backend())
		}
	}
	if s.cfg.Fleet != nil {
		return s.installFleet(sys)
	}
	var rec *recovery.Recoverer
	if !s.cfg.DisableRecovery && sys.Backend() == "dense" {
		r, err := sys.NewRecoverer(s.cfg.Recovery, s.cfg.RecoverySeed)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		rec = r
	}
	var sub substrate.FaultProcess
	if s.cfg.Substrate != nil {
		p, err := substrate.New(*s.cfg.Substrate, sys.AttackImage())
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		sub = p
	}
	st := &liveState{sys: sys, rec: rec, sub: sub}
	st.chain = model.NewEpochChain(sys.Freezer())
	st.publishSubStats()
	s.mu.Lock()
	s.live.Store(st)
	s.mu.Unlock()
	s.wd.reset()
	return nil
}

// installFleet builds a replica fleet over the new seed system and
// swaps it in. The server's recovery/substrate/journal settings fill
// any field the fleet config leaves zero, so `-substrate` and
// `-replicas` compose the way an operator expects. The fleet is built
// outside the lock (forking N models is expensive) and the displaced
// fleet is closed after the swap, never under s.mu.
func (s *Server) installFleet(sys *core.System) error {
	fcfg := *s.cfg.Fleet
	fcfg.DisableRecovery = fcfg.DisableRecovery || s.cfg.DisableRecovery
	if fcfg.Recovery == (recovery.Config{}) {
		fcfg.Recovery = s.cfg.Recovery
	}
	if fcfg.Substrate == nil {
		fcfg.Substrate = s.cfg.Substrate
	}
	if fcfg.ScrubTick <= 0 {
		fcfg.ScrubTick = s.cfg.ScrubTick
	}
	if fcfg.Seed == 0 {
		fcfg.Seed = s.cfg.RecoverySeed
	}
	if fcfg.Journal == nil {
		fcfg.Journal = s.cfg.Journal
	}
	if fcfg.ModelID == "" {
		fcfg.ModelID = s.cfg.ModelID
	}
	flt, err := fleet.New(sys, fcfg)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	st := &liveState{sys: sys, flt: flt}
	s.mu.Lock()
	old := s.live.Load()
	s.live.Store(st)
	s.mu.Unlock()
	s.wd.reset()
	if old != nil && old.flt != nil {
		old.flt.Close()
	}
	return nil
}

// publishSubStats refreshes the lock-free substrate counter snapshot.
// Call after any operation that touched st.sub, while still holding
// s.mu (or before the state is published, as install does).
func (st *liveState) publishSubStats() {
	if st.sub == nil {
		return
	}
	stats := st.sub.Stats()
	st.subStats.Store(&stats)
}

// fleet returns the live fleet (nil in single-model mode). Lock-free.
func (s *Server) fleet() *fleet.Fleet {
	if st := s.live.Load(); st != nil {
		return st.flt
	}
	return nil
}

// Fleet exposes the live fleet for drills and status (nil in
// single-model mode).
func (s *Server) Fleet() *fleet.Fleet { return s.fleet() }

// system returns the current system (nil before the first install).
// Lock-free.
func (s *Server) system() *core.System {
	if st := s.live.Load(); st != nil {
		return st.sys
	}
	return nil
}

// Ready reports whether a model is installed.
func (s *Server) Ready() bool { return s.system() != nil }

// Predict classifies one raw feature vector through the batching
// pool. It blocks until a shard flushes the batch containing this
// request (at most BatchWindow once a shard picks it up).
func (s *Server) Predict(x []float64) (Prediction, error) {
	req := &request{x: x, resp: make(chan result, 1)}
	if err := s.pool.submit(req); err != nil {
		return Prediction{}, err
	}
	res := <-req.resp
	return res.pred, res.err
}

// Shards reports the batching pool's shard count — the dispatch space
// a consistent-hash router (internal/registry) spreads keys over.
func (s *Server) Shards() int { return s.cfg.Shards }

// PredictShard classifies one raw feature vector through a specific
// batching shard instead of the round-robin default. The registry's
// consistent-hash dispatcher uses it to give each routing key a stable
// shard, so one tenant's traffic batches together instead of smearing
// across every queue.
func (s *Server) PredictShard(x []float64, shard uint64) (Prediction, error) {
	req := &request{x: x, resp: make(chan result, 1)}
	if err := s.pool.submitTo(req, shard); err != nil {
		return Prediction{}, err
	}
	res := <-req.resp
	return res.pred, res.err
}

// PredictMany classifies a batch, fanning the samples out across the
// pool's shards and collecting in order. The returned error is the
// first submission failure; predictions before it are still valid.
func (s *Server) PredictMany(xs [][]float64) ([]Prediction, error) {
	reqs := make([]*request, len(xs))
	var submitErr error
	for i, x := range xs {
		reqs[i] = &request{x: x, resp: make(chan result, 1)}
		if err := s.pool.submit(reqs[i]); err != nil {
			reqs[i] = nil
			if submitErr == nil {
				submitErr = err
			}
		}
	}
	out := make([]Prediction, len(xs))
	for i, req := range reqs {
		if req == nil {
			continue
		}
		res := <-req.resp
		if res.err != nil {
			if submitErr == nil {
				submitErr = res.err
			}
			continue
		}
		out[i] = res.pred
	}
	return out, submitErr
}

// batchScratch is a batcher goroutine's reusable flush state: the
// valid-input views, the surviving requests, and the prediction
// results. Encoded query vectors are NOT pooled here — trusted ones
// outlive the batch on the recovery queue.
type batchScratch struct {
	xs    [][]float64
	live  []*request
	preds []Prediction
}

func newBatchScratch(batchSize int) *batchScratch {
	return &batchScratch{
		xs:    make([][]float64, 0, batchSize),
		live:  make([]*request, 0, batchSize),
		preds: make([]Prediction, 0, batchSize),
	}
}

// serveBatch is the pool's flush hook: encode the batch lock-free,
// score it against the current model epoch with no lock at all,
// enqueue trusted queries for recovery, and answer every request. sc
// is the calling batcher's private scratch. The epoch is acquired once
// per batch — one atomic increment amortized over the whole flush —
// and every query in the batch scores against the same immutable
// image, so a concurrent writer can never tear a batch.
func (s *Server) serveBatch(batch []*request, sc *batchScratch) {
	st := s.live.Load()
	if st == nil {
		for _, r := range batch {
			s.metrics.errors.Add(1)
			r.resp <- result{err: ErrNoModel}
		}
		return
	}
	sys := st.sys
	want := sys.Features()
	xs := sc.xs[:0]
	live := sc.live[:0]
	for _, r := range batch {
		if len(r.x) != want {
			s.metrics.errors.Add(1)
			r.resp <- result{err: fmt.Errorf("%w: got %d features, want %d", ErrBadInput, len(r.x), want)}
			continue
		}
		xs = append(xs, r.x)
		live = append(live, r)
	}
	sc.xs, sc.live = xs, live
	if len(xs) == 0 {
		return
	}
	encoded := sys.EncodeAllParallel(xs, s.cfg.EncodeWorkers)

	gate := s.cfg.Recovery.ConfidenceThreshold
	if cap(sc.preds) < len(encoded) {
		sc.preds = make([]Prediction, len(encoded))
	}
	preds := sc.preds[:len(encoded)]
	sc.preds = preds
	if st.flt != nil {
		// Fleet path: the batch fans to the read-quorum (or the fast
		// single replica while the fleet is provably in sync). Per-
		// replica epoch chains replace s.mu — the seed system is never
		// scored.
		gate = st.flt.ConfidenceGate()
		classes, confs, err := st.flt.ScoreBatch(encoded, st.flt.Temperature())
		if err != nil {
			for _, r := range live {
				s.metrics.errors.Add(1)
				r.resp <- result{err: err}
			}
			sc.live = sc.live[:0]
			return
		}
		for i := range encoded {
			preds[i] = Prediction{Class: classes[i], Confidence: confs[i], Trusted: confs[i] >= gate}
		}
	} else {
		ep := st.chain.Acquire()
		img := ep.Frozen()
		for i, q := range encoded {
			class, conf := img.PredictWithConfidence(q, s.cfg.Recovery.Temperature)
			preds[i] = Prediction{Class: class, Confidence: conf, Trusted: conf >= gate}
		}
		ep.Release()
	}

	s.metrics.observeBatch(preds)
	for i, p := range preds {
		if p.Trusted && !s.cfg.DisableRecovery {
			s.enqueueRecovery(encoded[i])
		}
		live[i].resp <- result{pred: p}
	}

	// Drop request pointers so finished requests are collectable while
	// the scratch idles between batches.
	for i := range live {
		live[i] = nil
	}
	sc.live = sc.live[:0]
}

// enqueueRecovery hands a trusted query to the background loop
// without ever blocking the serving path.
func (s *Server) enqueueRecovery(q *bitvec.Vector) {
	select {
	case s.recCh <- q:
	default:
		s.metrics.recoveryDropped.Add(1)
	}
}

// recoveryLoop is the background self-healing goroutine: it drains
// the trusted-query buffer, running each observation under the
// exclusive writer mutex (recovery rewrites the deployed class
// hypervectors in place) and publishing the touched class as a new
// epoch. It exits once the channel is closed and fully drained, so
// Close never abandons queued observations.
func (s *Server) recoveryLoop() {
	defer s.bg.Done()
	for q := range s.recCh {
		if flt := s.fleet(); flt != nil {
			// Fleet mode: the observation lands on one replica (round-
			// robin) under that replica's own lock; the fleet bills
			// substitution writes to the replica's substrate itself.
			flt.Observe(q)
			continue
		}
		s.mu.Lock()
		// A /train or /restore may have swapped in a model of a
		// different shape between enqueue and observation; reload under
		// the lock so the observation and its publish hit one state.
		st := s.live.Load()
		if st != nil && st.flt == nil && st.rec != nil && q.Len() == st.sys.Dimensions() {
			var pred int
			var updated bool
			if st.sub == nil {
				pred, updated = st.rec.Observe(q)
			} else {
				// Recovery substitutions are memory writes: charge them
				// to the substrate so wear-driven processes see the
				// recovery loop consuming the array's endurance.
				before := st.rec.Stats().BitsSubstituted
				pred, updated = st.rec.Observe(q)
				if d := st.rec.Stats().BitsSubstituted - before; d > 0 {
					st.sub.NoteWrites(d)
					s.metrics.recoveryWrites.Add(int64(d))
					st.publishSubStats()
				}
			}
			if updated {
				// Observe substitutes chunks only within the predicted
				// class's hypervector: one dirty class per epoch.
				st.chain.Publish(st.sys.Model(), []int{pred})
			}
		}
		s.mu.Unlock()
	}
}

// SetProbe installs a labeled held-out set for the accuracy probe
// (copied, so callers may reuse their slices).
func (s *Server) SetProbe(xs [][]float64, ys []int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("%w: %d probe samples but %d labels", ErrBadInput, len(xs), len(ys))
	}
	cx := make([][]float64, len(xs))
	for i, x := range xs {
		cx[i] = append([]float64(nil), x...)
	}
	cy := append([]int(nil), ys...)
	s.probeMu.Lock()
	s.probeX, s.probeY = cx, cy
	s.probeMu.Unlock()
	return nil
}

// ProbeNow evaluates held-out accuracy immediately. It reports false
// when no probe set is installed, no model is loaded, or the probe
// set's arity does not match the current encoder.
func (s *Server) ProbeNow() (float64, bool) {
	s.probeMu.Lock()
	xs, ys := s.probeX, s.probeY
	s.probeMu.Unlock()
	st := s.live.Load()
	if st == nil || len(xs) == 0 || len(xs[0]) != st.sys.Features() {
		return 0, false
	}
	// Encode lock-free (immutable encoder), score against the current
	// epoch — the probe is a reader like any predict batch. In fleet
	// mode the probe measures what clients actually get — quorum
	// accuracy — not any single replica.
	encoded := st.sys.EncodeAllParallel(xs, s.cfg.EncodeWorkers)
	var acc float64
	if st.flt != nil {
		classes, _, err := st.flt.ScoreBatch(encoded, st.flt.Temperature())
		if err != nil {
			return 0, false
		}
		hit := 0
		for i, c := range classes {
			if c == ys[i] {
				hit++
			}
		}
		acc = float64(hit) / float64(len(ys))
	} else {
		ep := st.chain.Acquire()
		acc = ep.Frozen().AccuracyParallel(encoded, ys, s.cfg.EncodeWorkers)
		ep.Release()
	}
	s.metrics.recordProbe(acc)
	return acc, true
}

// probeLoop re-evaluates held-out accuracy on a timer.
func (s *Server) probeLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.ProbeNow()
		case <-s.done:
			return
		}
	}
}

// Close drains and stops the server: the pool answers every accepted
// request, the recovery goroutine finishes its backlog, and the probe
// loop stops. Close is idempotent; requests after it return
// ErrClosed.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.pool.close() // flush pending batches; batchers are the only recCh senders
	close(s.recCh) // recovery drains the backlog, then exits
	close(s.done)  // stop the probe loop
	s.bg.Wait()
	if flt := s.fleet(); flt != nil {
		flt.Close() // stop per-replica scrubbers and the sweep loop
	}
}
