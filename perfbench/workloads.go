package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/recovery"
	"repro/internal/serve"
)

// workload is one traffic mix against one servehd configuration. Every
// workload trains on the PAMAP spec servehd builds in and sends rows of
// its test split.
type workload struct {
	name string
	dims int
	// replicas > 0 runs servehd as a replica fleet.
	replicas    int
	quorum      int
	antiEntropy time.Duration
	// rows is the number of test rows per request; one row goes out in
	// the single-sample {"x":...} form.
	rows int
	// rate > 0 makes the traffic open loop at that many requests per
	// second; zero is closed loop.
	rate float64
	// burst sends one /attack burst at window start.
	burst bool
}

// conns is the number of traffic connections: the reference box has
// two cores, and client and server share them.
const conns = 2

// Burst drill shape (the /attack "burst" kind).
const (
	burstSpanFrac = 0.10
	burstFlipProb = 0.5
	// burstReplica is the fleet member the fleet workload attacks.
	burstReplica = 1
)

// workloads are the benchmark's traffic mixes; BENCHMARK.json says why
// each was chosen.
var workloads = []workload{
	// Bound by JSON decode and response write; encode is a small share.
	{name: "bulk", dims: 4096, rows: 64},
	// Per-request fixed cost and encode dominate. Two connections sustain
	// about 8500 single-row requests/s on two cores; 3000/s leaves room
	// for the host's CPU steal, under which 4000/s began to queue.
	{name: "interactive", dims: 10000, rows: 1, rate: 3000},
	// Recovery writes and epoch publishes beside reads.
	{name: "heal", dims: 4096, rows: 16, burst: true},
	// Quorum scoring, escalation, anti-entropy repair and reseeds.
	{name: "fleet", dims: 4096, rows: 16, burst: true,
		replicas: 3, quorum: 2, antiEntropy: 500 * time.Millisecond},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seeds derives the seeds one benchmark seed fixes: servehd's -seed,
// the row order and grouping, and the burst.
type seeds struct {
	server, rows, burst uint64
}

func deriveSeeds(seed uint64) seeds {
	return seeds{server: mix(seed, 1), rows: mix(seed, 2), burst: mix(seed, 3)}
}

// mix is a splitmix64 step; the result is never 0, which several
// constructors read as "default".
func mix(seed, salt uint64) uint64 {
	x := seed + salt*0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return (x ^ x>>31) | 1
}

// servehdArgs is the servehd command line for this workload.
func (w workload) servehdArgs(serverSeed uint64, noRecover bool) []string {
	args := []string{"-addr", "127.0.0.1:0", "-dataset", "PAMAP",
		"-dims", strconv.Itoa(w.dims), "-seed", strconv.FormatUint(serverSeed, 10)}
	if w.replicas > 0 {
		args = append(args, "-replicas", strconv.Itoa(w.replicas), "-quorum", strconv.Itoa(w.quorum),
			"-antientropy", w.antiEntropy.String())
	}
	if noRecover {
		args = append(args, "-norecover")
	}
	return args
}

// coreConfig and serveConfig build what servehd builds from
// servehdArgs, for the in-process traced run.
func (w workload) coreConfig(serverSeed uint64) core.Config {
	return core.Config{Dimensions: w.dims, Seed: serverSeed}
}

func (w workload) serveConfig(serverSeed uint64, noRecover bool) serve.Config {
	cfg := serve.Config{
		Recovery:        recovery.DefaultConfig(),
		RecoverySeed:    serverSeed + 2,
		DisableRecovery: noRecover,
	}
	if w.replicas > 0 {
		cfg.Fleet = &fleet.Config{
			Replicas:    w.replicas,
			Quorum:      w.quorum,
			AntiEntropy: fleet.AntiEntropyConfig{Interval: w.antiEntropy},
		}
	}
	return cfg
}

// attackBody is the /attack request of the burst drill.
func (w workload) attackBody(burstSeed uint64) []byte {
	replica := ""
	if w.replicas > 0 {
		replica = fmt.Sprintf(`,"replica":%d`, burstReplica)
	}
	return []byte(fmt.Sprintf(`{"kind":"burst","span_frac":%g,"flip_prob":%g,"seed":%d%s}`,
		burstSpanFrac, burstFlipProb, burstSeed, replica))
}
