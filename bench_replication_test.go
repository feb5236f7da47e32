// Replication-engine benchmarks: quorum dispatch on both serving paths
// (the healthy single-replica fast path and the quorum fan-out) and the
// anti-entropy repair sweep, each run through the one coordinator over
// both transports — in-process replicas (Fleet) and HTTP node servers
// (Cluster). The Cluster cases price the wire tax against their Fleet
// twins. cmd/benchjson turns the output into the BENCH_fleet.json and
// BENCH_cluster.json CI artifacts.
package repro_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// benchFleet builds a 3-replica in-process fleet over the shared bench
// system with every background loop parked, so iterations measure only
// the dispatch or sweep under test.
func benchFleet(b *testing.B) (*fleet.Fleet, *core.System, [][]float64) {
	b.Helper()
	sys, ds := benchSystem(b)
	f, err := fleet.New(sys, fleet.Config{
		Replicas:        3,
		Seed:            1,
		DisableRecovery: true,
		ScrubTick:       24 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	return f, sys, ds.TestX
}

// benchCluster boots 3 node servers — each a full serve.Server with the
// node API mounted, loaded from one snapshot of the shared bench system
// — and a quorum-2 coordinator over them.
func benchCluster(b *testing.B) (*fleet.Cluster, [][]float64) {
	b.Helper()
	sys, ds := benchSystem(b)
	var snap bytes.Buffer
	if err := sys.Save(&snap); err != nil {
		b.Fatal(err)
	}
	urls := make([]string, 3)
	for i := range urls {
		nodeSys, err := core.Load(bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := serve.New(nodeSys, serve.Config{NodeAPI: true, DisableRecovery: true})
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		b.Cleanup(func() { hs.Close(); srv.Close() })
		urls[i] = hs.URL
	}
	co, err := fleet.NewCluster(fleet.Config{Nodes: urls, Quorum: 2, Timeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	return co, ds.TestX
}

// attackBody is the /attack drill the Cluster cases route through the
// coordinator.
func attackBody(rate float64, seed uint64) []byte {
	body, _ := json.Marshal(map[string]any{"kind": "random", "rate": rate, "seed": seed})
	return body
}

// benchPredict scores a batch of 16 per iteration. "fast" is the armed
// single-replica path (a clean sweep has proven the replicas
// bit-identical); "quorum" is the fan-out path with unanimous voters,
// disarmed by a mutation that changes no bit — the steady-state cost of
// not being proven healthy.
func benchPredict[Q any](b *testing.B, co *fleet.Coordinator[Q], qs []Q, disarm func() error) {
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := co.ScoreBatch(qs, co.Temperature()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fast/batch16", func(b *testing.B) {
		if rep, err := co.SweepNow(); err != nil || !rep.Healthy {
			b.Fatalf("clean replicas did not arm the fast path: %+v, %v", rep, err)
		}
		run(b)
	})
	b.Run("quorum/batch16", func(b *testing.B) {
		if err := disarm(); err != nil {
			b.Fatal(err)
		}
		if co.Healthy() {
			b.Fatal("mutation did not disarm the fast path")
		}
		run(b)
	})
}

// benchSweep measures one repair cycle: corrupt 1% of replica 0, then
// sweep — chunk-hash summaries from every replica, divergent-chunk
// fetch, majority vote, and the repair push. The attack is outside the
// timer.
func benchSweep[Q any](b *testing.B, co *fleet.Coordinator[Q], corrupt func(seed uint64) error) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := corrupt(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := co.SweepNow()
		if err != nil {
			b.Fatal(err)
		}
		if rep.RepairedBits == 0 {
			b.Fatal("sweep repaired nothing")
		}
	}
}

// BenchmarkFleetPredict: quorum inference over pre-encoded batches on
// in-process replicas.
func BenchmarkFleetPredict(b *testing.B) {
	f, sys, testX := benchFleet(b)
	benchPredict(b, f.Coordinator, sys.EncodeAll(testX[:16]), func() error {
		return f.WithReplica(0, func(*core.System) error { return nil })
	})
}

// BenchmarkClusterPredict: quorum inference over the wire on raw
// feature rows (nodes encode locally).
func BenchmarkClusterPredict(b *testing.B) {
	co, testX := benchCluster(b)
	benchPredict(b, co.Coordinator, testX[:16], func() error {
		_, err := co.Attack(0, attackBody(0, 1))
		return err
	})
}

// BenchmarkAntiEntropySweep: one repair cycle on in-process replicas.
func BenchmarkAntiEntropySweep(b *testing.B) {
	f, _, _ := benchFleet(b)
	benchSweep(b, f.Coordinator, func(seed uint64) error {
		return f.WithReplica(0, func(target *core.System) error {
			_, err := target.AttackRandom(0.01, seed)
			return err
		})
	})
}

// BenchmarkClusterSweep: one repair cycle over the wire.
func BenchmarkClusterSweep(b *testing.B) {
	co, _ := benchCluster(b)
	benchSweep(b, co.Coordinator, func(seed uint64) error {
		_, err := co.Attack(0, attackBody(0.01, seed))
		return err
	})
}
