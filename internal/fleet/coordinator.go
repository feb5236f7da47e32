// Package fleet manages N replicas of one deployed HDC model as a
// single robust service — the layer that turns "one self-healing
// model" into "a self-healing deployment".
//
// One replication engine, Coordinator, runs the whole protocol over a
// narrow Replica transport:
//
//   - Quorum inference (ScoreBatch): a query fans to a read-quorum of
//     replicas and the predictions are majority-voted, with escalation
//     to the full active set on disagreement. While the replicas are
//     provably in sync a fast path scores on a single replica.
//   - Anti-entropy repair (SweepNow, antientropy.go): every replica
//     reports per-chunk hashes of its class hypervectors; only chunks
//     whose hashes disagree are fetched, majority-voted, and pushed
//     back to the minority replicas.
//   - Replica lifecycle: a replica whose divergence exceeds the
//     quarantine threshold leaves rotation and is re-imaged from the
//     healthiest peer's stamped snapshot (core.SaveStamped /
//     core.LoadStamped, CRC-sealed); one stranded in quarantine by a
//     refused or failed reseed is retried every sweep.
//   - Failure ladder: a replica whose exchanges keep failing is parked
//     Down, and consecutive liveness probes earn it back.
//
// Two transports implement Replica. Fleet (local.go) forks the seed
// system into in-process replicas, each with its own recoverer,
// substrate and epoch chain, scoring already-encoded hypervectors.
// Cluster (remote.go) drives `servehd -node` processes over HTTP,
// sending raw feature rows that each node encodes itself. The query
// type is the coordinator's type parameter; everything else is one
// code path, so the two transports are bit-identical under the same
// event sequence by construction.
//
// Locking: aeMu serializes sweeps and lifecycle transitions and nests
// outside every replica's own lock; the engine never holds two
// replica locks at once.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/substrate"
)

// ErrNoReplicas reports a call with every replica down or quarantined.
// The lifecycle keeps a quorum active in process, so there it means a
// bug; over the network it means every node is unreachable.
var ErrNoReplicas = errors.New("fleet: no active replicas")

// maxReplicas bounds the fleet; bitvec.MajorityInto's vote counter
// caps at 63 lanes and no deployment needs more.
const maxReplicas = 63

// Config parameterizes the replication engine. Quorum, Temperature,
// Recovery, AntiEntropy, Journal and ModelID apply to both transports;
// each remaining field belongs to one of them, and Validate rejects it
// when set for the other.
type Config struct {
	// Replicas is N, the in-process fleet size (default 3). A cluster
	// takes its size from Nodes.
	Replicas int
	// Nodes are the member base URLs (http://host:port) of a networked
	// cluster (NewCluster), in id order.
	Nodes []string
	// Quorum is the read-quorum fanned to on each prediction (default
	// majority, N/2+1; clamped to [1, N]). 1 trades detection latency
	// for throughput; N makes every prediction a full vote.
	Quorum int
	// Temperature is the softmax temperature replicas score at
	// (default Recovery.Temperature).
	Temperature float64

	// Seed derives the per-replica substrate and recovery seeds, so
	// replica fault processes diverge deterministically (in process).
	Seed uint64
	// DisableRecovery turns per-replica self-healing off (in process).
	DisableRecovery bool
	// Recovery parameterizes each in-process replica's recoverer (zero
	// value selects recovery.DefaultConfig()); its Temperature is the
	// default Temperature on both transports.
	Recovery recovery.Config
	// Substrate mounts each in-process replica on its own fault process
	// (nil disables; the per-replica Seed field is derived from Seed).
	Substrate *substrate.Config
	// ScrubTick is the per-replica scrubber period (default 100ms;
	// effective only with a Substrate). AdvanceReplica remains
	// available for deterministic drills.
	ScrubTick time.Duration

	// AntiEntropy parameterizes majority repair and the quarantine
	// ladder.
	AntiEntropy AntiEntropyConfig

	// Journal receives lifecycle and repair events (nil drops them).
	// Event.Replica carries the replica (node) id.
	Journal *Journal
	// ModelID tags this engine's journal events with a tenant model id.
	// Tagging happens at the source (not via Journal.SetModelTag) so
	// several tenants' fleets can share one journal without clobbering
	// each other's default tag. Empty leaves events untagged — the
	// pre-tenancy format.
	ModelID string

	// Timeout bounds each node exchange end to end (default 2s). A
	// slow node costs at most this per attempt, never an unbounded
	// stall.
	Timeout time.Duration
	// Retries is how many additional attempts follow a failed node
	// exchange (default 2; negative disables retries entirely; 4xx
	// responses are never retried).
	Retries int
	// Backoff is the delay before the first retry, doubling per retry
	// (default 50ms).
	Backoff time.Duration
	// FailThreshold is how many consecutive failed exchanges take a
	// replica out of rotation (default 3).
	FailThreshold int
	// RejoinProbes is how many consecutive successful liveness probes —
	// one per sweep — a Down replica needs to rejoin (default 2). A
	// flapping node keeps resetting the streak and stays out, so the
	// rotation never thrashes.
	RejoinProbes int
}

// AntiEntropyConfig parameterizes the background repair loop.
type AntiEntropyConfig struct {
	// Interval enables the periodic sweep loop (0 disables it; SweepNow
	// is always available for drills and tests).
	Interval time.Duration
	// Chunks is how many pieces each class hypervector is compared in
	// (default 64). Smaller chunks localize repairs; every sweep hashes
	// each replica's whole model regardless.
	Chunks int
	// QuarantineDivergence is the divergence fraction (bits disagreeing
	// with the majority / total model bits) beyond which a replica is
	// pulled from rotation and re-seeded instead of chunk-patched
	// (default 0.05). Chunk repair assumes damage is the minority at
	// every position; a replica this far gone pollutes the vote itself.
	QuarantineDivergence float64
	// MinReseedAgreement is the floor a donor's stamped agreement (1 -
	// divergence at the last sweep) must clear for its image to be used
	// as a reseed source (default 0.5).
	MinReseedAgreement float64
}

// size is the replica count the config describes.
func (c *Config) size() int {
	switch {
	case len(c.Nodes) > 0:
		return len(c.Nodes)
	case c.Replicas > 0:
		return c.Replicas
	}
	return 3
}

func (c *Config) fillDefaults() {
	c.Replicas = c.size()
	if c.Quorum <= 0 {
		c.Quorum = c.Replicas/2 + 1
	}
	if c.Quorum > c.Replicas {
		c.Quorum = c.Replicas
	}
	if c.Recovery == (recovery.Config{}) {
		c.Recovery = recovery.DefaultConfig()
	}
	if c.Temperature <= 0 {
		c.Temperature = c.Recovery.Temperature
	}
	if c.ScrubTick <= 0 {
		c.ScrubTick = 100 * time.Millisecond
	}
	if c.AntiEntropy.Chunks <= 0 {
		c.AntiEntropy.Chunks = 64
	}
	if c.AntiEntropy.QuarantineDivergence <= 0 {
		c.AntiEntropy.QuarantineDivergence = 0.05
	}
	if c.AntiEntropy.MinReseedAgreement <= 0 {
		c.AntiEntropy.MinReseedAgreement = 0.5
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RejoinProbes <= 0 {
		c.RejoinProbes = 2
	}
}

// Validate rejects unusable configurations for either transport, and
// settings the config's transport would ignore. Float knobs go through
// the shared stats helpers so NaN/Inf are rejected uniformly: NaN slips
// past the `v <= 0` default tests in fillDefaults, and a NaN threshold
// would silently disable what it gates.
func (c Config) Validate() error {
	if c.Replicas < 0 || c.Replicas > maxReplicas {
		return fmt.Errorf("fleet: replicas %d out of [1,%d]", c.Replicas, maxReplicas)
	}
	if len(c.Nodes) > maxReplicas {
		return fmt.Errorf("fleet: %d nodes, at most %d", len(c.Nodes), maxReplicas)
	}
	// A config with Nodes describes a networked cluster, any other an
	// in-process fleet; a field only the other transport reads is an error.
	remote := len(c.Nodes) > 0
	for _, f := range []struct {
		name          string
		set, isRemote bool
	}{
		{"Replicas", c.Replicas != 0, false}, {"Seed", c.Seed != 0, false},
		{"DisableRecovery", c.DisableRecovery, false}, {"Substrate", c.Substrate != nil, false},
		{"ScrubTick", c.ScrubTick != 0, false}, {"Timeout", c.Timeout != 0, true},
		{"Retries", c.Retries != 0, true}, {"Backoff", c.Backoff != 0, true},
		{"FailThreshold", c.FailThreshold != 0, true}, {"RejoinProbes", c.RejoinProbes != 0, true},
	} {
		if f.set && f.isRemote != remote {
			return fmt.Errorf("fleet: %s is not read by %s", f.name, map[bool]string{false: "an in-process fleet", true: "a networked cluster"}[remote])
		}
	}
	if n := c.size(); c.Quorum < 0 || c.Quorum > n {
		return fmt.Errorf("fleet: quorum %d out of [1,%d]", c.Quorum, n)
	}
	if err := stats.CheckFinite("fleet: temperature", c.Temperature); err != nil {
		return err
	}
	if c.Temperature < 0 {
		return fmt.Errorf("fleet: temperature %v is negative", c.Temperature)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"fleet: quarantine divergence", c.AntiEntropy.QuarantineDivergence},
		{"fleet: min reseed agreement", c.AntiEntropy.MinReseedAgreement},
	} {
		if err := stats.CheckFinite(f.name, f.v); err != nil {
			return err
		}
		if f.v != 0 {
			if err := stats.CheckInterval(f.name, f.v, "(0,1]"); err != nil {
				return err
			}
		}
	}
	return nil
}

// Replica is one member of the engine, as the coordinator drives it.
// Q is the query type the transport scores.
type Replica[Q any] interface {
	// Score classifies a batch at the given softmax temperature,
	// returning index-aligned classes and confidences.
	Score(qs []Q, temperature float64) ([]int, []float64, error)
	// Summary reports per-class chunk hashes of the deployed model.
	Summary(chunks int) (Summary, error)
	// Chunks fills dst[i], a refs[i].Hi-refs[i].Lo bit vector, with
	// the bits of chunk refs[i].
	Chunks(refs []ChunkRef, dst []*bitvec.Vector) error
	// Repair overwrites the named chunks with the given images, billing
	// the writes to the replica's substrate.
	Repair(refs []ChunkRef, images []*bitvec.Vector) error
	// Snapshot serializes the deployed model, stamped with stamp.
	Snapshot(stamp float64) ([]byte, error)
	// Reseed re-images the deployed model from a Snapshot image.
	Reseed(image []byte) error
	// Probe reports liveness, without retries or side effects.
	Probe() bool
	// JournalVerify re-verifies the replica's own journal; replicas
	// without one answer Enabled=false.
	JournalVerify() (JournalVerifyResponse, error)
}

// Replica lifecycle states. Down is only reachable by a transport that
// can fail: the failure ladder parks an unreachable replica there
// until consecutive liveness probes earn it back into rotation.
const (
	stateActive int32 = iota
	stateDown
	stateQuarantined
)

// member is one replica plus the engine's bookkeeping for it.
type member[Q any] struct {
	id int
	r  Replica[Q]

	state atomic.Int32
	// consecFails counts consecutive ErrNodeDown exchanges; rejoinOKs
	// counts consecutive successful probes (sweep-driven, under aeMu).
	consecFails atomic.Int32
	rejoinOKs   int

	served       atomic.Int64
	failures     atomic.Int64
	downs        atomic.Int64
	rejoins      atomic.Int64
	quarantines  atomic.Int64
	reseeds      atomic.Int64
	repairedBits atomic.Int64
	divergence   atomic.Uint64 // math.Float64bits of the last sweep's measurement
}

func (m *member[Q]) active() bool            { return m.state.Load() == stateActive }
func (m *member[Q]) setDivergence(f float64) { m.divergence.Store(math.Float64bits(f)) }
func (m *member[Q]) getDivergence() float64  { return math.Float64frombits(m.divergence.Load()) }

// Coordinator is the replication engine over replicas of transport Q.
type Coordinator[Q any] struct {
	cfg     Config
	members []*member[Q]
	journal *Journal
	// parallel fans per-replica calls out on goroutines. Network
	// exchanges overlap their waits; in-process calls are CPU-bound
	// and cheaper on the caller's goroutine.
	parallel bool

	// cursor rotates fast-path and quorum-member selection so load and
	// wear spread evenly.
	cursor atomic.Uint64

	// healthy gates the fast single-replica path. It is set only by a
	// sweep that proves all replicas active and bit-identical, and
	// cleared by anything that could make them diverge: substrate
	// flips, recovery substitutions, external mutation, repairs,
	// quarantines, failures. False negatives only cost fan-out; a false
	// positive would serve unvoted answers, so every clearing site errs
	// toward clearing.
	healthy atomic.Bool

	// aeMu serializes anti-entropy sweeps and lifecycle transitions; it
	// nests OUTSIDE every replica lock.
	aeMu sync.Mutex
	// Sweep working memory, reused across sweeps: the divergent chunks
	// and their chunk indexes, each (class, chunk) slot's buffers, and
	// per-replica repair plans.
	refs     []ChunkRef
	refChunk []int
	bufs     [][]*bitvec.Vector
	plans    [][]chunkPlan

	fastPredicts   atomic.Int64
	quorumPredicts atomic.Int64
	escalations    atomic.Int64
	degraded       atomic.Int64 // batches answered with quorum members missing
	sweeps         atomic.Int64
	repairs        atomic.Int64
	repairBits     atomic.Int64
	quarantines    atomic.Int64
	reseeds        atomic.Int64

	done   chan struct{}
	bg     sync.WaitGroup
	closed atomic.Bool
}

// newCoordinator wires replicas (already validated and defaulted cfg)
// into an engine and starts the sweep loop. healthy is the initial
// fast-path posture: true only when the caller built the replicas
// provably identical itself.
func newCoordinator[Q any](cfg Config, replicas []Replica[Q], healthy, parallel bool) *Coordinator[Q] {
	co := &Coordinator[Q]{
		cfg:      cfg,
		journal:  cfg.Journal,
		parallel: parallel,
		done:     make(chan struct{}),
	}
	co.healthy.Store(healthy)
	for i, r := range replicas {
		co.members = append(co.members, &member[Q]{id: i, r: r})
	}
	if cfg.AntiEntropy.Interval > 0 {
		co.every(cfg.AntiEntropy.Interval, func(time.Duration) { _, _ = co.SweepNow() })
	}
	return co
}

// Size returns the configured replica count.
func (co *Coordinator[Q]) Size() int { return len(co.members) }

// Quorum returns the configured read-quorum.
func (co *Coordinator[Q]) Quorum() int { return co.cfg.Quorum }

// Temperature returns the softmax temperature replicas score at.
func (co *Coordinator[Q]) Temperature() float64 { return co.cfg.Temperature }

// Healthy reports whether the fast single-replica path is engaged.
func (co *Coordinator[Q]) Healthy() bool { return co.healthy.Load() }

// actives returns the replicas currently in rotation, in id order.
func (co *Coordinator[Q]) actives() []*member[Q] {
	out := make([]*member[Q], 0, len(co.members))
	for _, m := range co.members {
		if m.active() {
			out = append(out, m)
		}
	}
	return out
}

func (co *Coordinator[Q]) member(id int) (*member[Q], error) {
	if id < 0 || id >= len(co.members) {
		return nil, fmt.Errorf("fleet: no replica %d", id)
	}
	return co.members[id], nil
}

// each runs fn(0..n-1), concurrently when the transport waits on the
// network, and returns once every call has.
func (co *Coordinator[Q]) each(n int, fn func(i int)) {
	if !co.parallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// journalAppend stamps the engine's tenant id (when configured) onto
// the event and appends it. Append errors are counted by the journal
// (Status.JournalErrors) and never fail the serving path.
func (co *Coordinator[Q]) journalAppend(e Event) {
	if co.journal == nil {
		return // before Append, whose argument escapes to the heap
	}
	if e.Model == "" {
		e.Model = co.cfg.ModelID
	}
	_ = co.journal.Append(e)
}

// noteSuccess resets a replica's failure streak.
func (co *Coordinator[Q]) noteSuccess(m *member[Q]) { m.consecFails.Store(0) }

// noteFailure advances the failure ladder. Only unreachability
// (ErrNodeDown) counts — a node answering 4xx is alive and healthy,
// the coordinator just asked it something wrong.
func (co *Coordinator[Q]) noteFailure(m *member[Q], err error) {
	m.failures.Add(1)
	if !errors.Is(err, ErrNodeDown) {
		return
	}
	fails := m.consecFails.Add(1)
	if int(fails) >= co.cfg.FailThreshold && m.state.CompareAndSwap(stateActive, stateDown) {
		m.downs.Add(1)
		co.healthy.Store(false)
		co.journalAppend(Event{Kind: EventWatchdog, Replica: m.id, Class: -1, Chunk: -1,
			Detail: fmt.Sprintf("node down after %d consecutive failures", fails)})
	}
}

// scoreOn scores the batch on one replica, driving the failure ladder.
func (co *Coordinator[Q]) scoreOn(m *member[Q], qs []Q, temperature float64) ([]int, []float64, error) {
	classes, confs, err := m.r.Score(qs, temperature)
	if err != nil {
		co.noteFailure(m, err)
		return nil, nil, err
	}
	co.noteSuccess(m)
	m.served.Add(int64(len(qs)))
	return classes, confs, nil
}

// fanScore scores the batch on every listed replica, preserving list
// order. Failed replicas yield nil vote slots and their error in the
// matching errs slot.
func (co *Coordinator[Q]) fanScore(ms []*member[Q], qs []Q, temperature float64) ([][]int, [][]float64, []error) {
	votes := make([][]int, len(ms))
	confs := make([][]float64, len(ms))
	errs := make([]error, len(ms))
	co.each(len(ms), func(i int) {
		votes[i], confs[i], errs[i] = co.scoreOn(ms[i], qs, temperature)
	})
	return votes, confs, errs
}

// ScoreBatch classifies a batch of queries through the replicas and
// returns per-query classes and confidences.
//
// Healthy fast path: the whole batch scores on one replica (round-
// robin); a failure there drops to the quorum path. Quorum path: Quorum
// members are picked by the rotating cursor and merged by resolveVotes
// — unanimous queries answer directly, and any disagreement escalates
// to the full active set with majority vote (ties break toward the
// higher summed confidence, then the lower class id). With three
// replicas and one corrupted, escalation guarantees the two healthy
// replicas outvote the corrupted one on every query. Members that fail
// mid-batch are dropped from the vote (and the failure ladder
// advances); the batch degrades to the survivors rather than stalling
// past the per-node deadline.
func (co *Coordinator[Q]) ScoreBatch(qs []Q, temperature float64) ([]int, []float64, error) {
	if len(qs) == 0 {
		return []int{}, []float64{}, nil
	}
	act := co.actives()
	if len(act) == 0 {
		return nil, nil, ErrNoReplicas
	}
	if co.healthy.Load() && len(act) == len(co.members) {
		m := act[co.cursor.Add(1)%uint64(len(act))]
		classes, confs, err := co.scoreOn(m, qs, temperature)
		if err == nil {
			co.fastPredicts.Add(int64(len(qs)))
			return classes, confs, nil
		}
		if errors.Is(err, ErrNodeBad) {
			// The node vetoed the request itself — every other node
			// would say the same, and the node is demonstrably alive,
			// so the fast path stays armed.
			return nil, nil, err
		}
		// The chosen replica failed: identity is no longer provable
		// with it reachable — drop to the quorum path over the rest.
		co.healthy.Store(false)
		if act = co.actives(); len(act) == 0 {
			return nil, nil, ErrNoReplicas
		}
	}

	k := min(co.cfg.Quorum, len(act))
	start := co.cursor.Add(1)
	members := make([]*member[Q], k)
	for i := range members {
		members[i] = act[(start+uint64(i))%uint64(len(act))]
	}
	votes, vconfs, verrs := co.fanScore(members, qs, temperature)
	answered := map[*member[Q]]int{} // member -> index into votes
	var live [][]int
	var liveConfs [][]float64
	for i, m := range members {
		if votes[i] != nil {
			answered[m] = i
			live = append(live, votes[i])
			liveConfs = append(liveConfs, vconfs[i])
		}
	}
	if len(live) == 0 {
		// A member's 4xx veto means the request itself was malformed —
		// surface that classification rather than blaming the replicas.
		for _, e := range verrs {
			if errors.Is(e, ErrNodeBad) {
				return nil, nil, e
			}
		}
		return nil, nil, fmt.Errorf("%w: all %d quorum members failed", ErrNoReplicas, k)
	}
	if len(live) < k {
		co.degraded.Add(1)
	}
	co.quorumPredicts.Add(int64(len(qs)))

	// Escalation scores the rest of the active set (lazily, at most
	// once), reusing member answers, and votes in id order.
	full := func() ([][]int, [][]float64) {
		var need []*member[Q]
		for _, m := range act {
			if _, ok := answered[m]; !ok {
				need = append(need, m)
			}
		}
		nv, nc, _ := co.fanScore(need, qs, temperature)
		votes, vconfs = append(votes, nv...), append(vconfs, nc...)
		for i, m := range need {
			if nv[i] != nil {
				answered[m] = len(members) + i
			}
		}
		var fullVotes [][]int
		var fullConfs [][]float64
		for _, m := range act {
			if i, ok := answered[m]; ok {
				fullVotes = append(fullVotes, votes[i])
				fullConfs = append(fullConfs, vconfs[i])
			}
		}
		return fullVotes, fullConfs
	}
	classes, confs, escalated := resolveVotes(live, liveConfs, full)
	if escalated {
		co.escalations.Add(1)
	}
	return classes, confs, nil
}

// ReplicaStatus is one replica's externally visible state, served by
// /fleet, /cluster and the fleet section of /metrics.
type ReplicaStatus struct {
	ID int `json:"id"`
	// Addr is the node's base URL (networked replicas only).
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"`
	// Served counts queries this replica scored (fast path and quorum
	// fan-outs both count). Failures counts failed exchanges (each
	// exchange's final verdict after retries, not each attempt).
	Served   int64 `json:"served"`
	Failures int64 `json:"failures"`
	// Divergence is the fraction of this replica's model bits that
	// disagreed with the majority at the last anti-entropy sweep.
	Divergence   float64 `json:"divergence"`
	RepairedBits int64   `json:"repaired_bits"`
	// FaultBits counts substrate flips applied by this replica's
	// scrubber (in process).
	FaultBits   int64 `json:"fault_bits"`
	Downs       int64 `json:"downs"`
	Rejoins     int64 `json:"rejoins"`
	Quarantines int64 `json:"quarantines"`
	Reseeds     int64 `json:"reseeds"`
	// Substrate is the replica's fault-process counters (nil without a
	// mounted substrate, and for networked replicas).
	Substrate *substrate.Stats `json:"substrate,omitempty"`
	// Recovery is the replica's self-healing counters (nil when
	// recovery is disabled, and for networked replicas).
	Recovery *recovery.Stats `json:"recovery,omitempty"`
}

// Status is the engine's externally visible state.
type Status struct {
	Replicas []ReplicaStatus `json:"replicas"`
	Quorum   int             `json:"quorum"`
	// Healthy reports whether the fast single-replica path is engaged
	// (every replica active and proven bit-identical by the last sweep).
	Healthy bool `json:"healthy"`
	// FastPredicts / QuorumPredicts split served queries by path;
	// Escalations counts quorum disagreements that forced a full vote;
	// Degraded counts batches answered with quorum members missing.
	FastPredicts   int64 `json:"fast_predicts"`
	QuorumPredicts int64 `json:"quorum_predicts"`
	Escalations    int64 `json:"escalations"`
	Degraded       int64 `json:"degraded"`
	// Sweeps / Repairs / RepairBits / Quarantines / Reseeds summarize
	// anti-entropy activity.
	Sweeps      int64 `json:"sweeps"`
	Repairs     int64 `json:"repairs"`
	RepairBits  int64 `json:"repair_bits"`
	Quarantines int64 `json:"quarantines"`
	Reseeds     int64 `json:"reseeds"`
	// JournalSeq is the last journal sequence number (0 without a
	// journal). JournalSealedSeq is the highest Merkle-sealed seq, and
	// JournalErrors counts appends the sink rejected — the journal's
	// health signal, since call sites intentionally drop append errors
	// on the serving path.
	JournalSeq       int64 `json:"journal_seq"`
	JournalSealedSeq int64 `json:"journal_sealed_seq"`
	JournalErrors    int64 `json:"journal_errors"`
}

// Status snapshots engine and per-replica counters.
func (co *Coordinator[Q]) Status() Status {
	st := Status{
		Quorum:         co.cfg.Quorum,
		Healthy:        co.healthy.Load(),
		FastPredicts:   co.fastPredicts.Load(),
		QuorumPredicts: co.quorumPredicts.Load(),
		Escalations:    co.escalations.Load(),
		Degraded:       co.degraded.Load(),
		Sweeps:         co.sweeps.Load(),
		Repairs:        co.repairs.Load(),
		RepairBits:     co.repairBits.Load(),
		Quarantines:    co.quarantines.Load(),
		Reseeds:        co.reseeds.Load(),
	}
	js := co.journal.Stats()
	st.JournalSeq = js.Seq
	st.JournalSealedSeq = js.SealedSeq
	st.JournalErrors = js.Errors
	for _, m := range co.members {
		rs := ReplicaStatus{
			ID:           m.id,
			State:        "active",
			Served:       m.served.Load(),
			Failures:     m.failures.Load(),
			Divergence:   m.getDivergence(),
			RepairedBits: m.repairedBits.Load(),
			Downs:        m.downs.Load(),
			Rejoins:      m.rejoins.Load(),
			Quarantines:  m.quarantines.Load(),
			Reseeds:      m.reseeds.Load(),
		}
		switch m.state.Load() {
		case stateDown:
			rs.State = "down"
		case stateQuarantined:
			rs.State = "quarantined"
		}
		if t, ok := m.r.(interface{ fillStatus(*ReplicaStatus) }); ok {
			t.fillStatus(&rs) // the transport's own fields
		}
		st.Replicas = append(st.Replicas, rs)
	}
	return st
}

// every runs fn on a ticker until Close, passing the real time elapsed
// since the previous tick.
func (co *Coordinator[Q]) every(d time.Duration, fn func(elapsed time.Duration)) {
	co.bg.Add(1)
	go func() {
		defer co.bg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case now := <-t.C:
				fn(now.Sub(last))
				last = now
			case <-co.done:
				return
			}
		}
	}()
}

// Close stops the background loops. Calls racing Close still answer;
// the engine holds no queues of its own.
func (co *Coordinator[Q]) Close() {
	if !co.closed.CompareAndSwap(false, true) {
		return
	}
	close(co.done)
	co.bg.Wait()
}
