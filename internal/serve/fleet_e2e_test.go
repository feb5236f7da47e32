package serve

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/substrate"
)

// syncWriter is a goroutine-safe journal sink: fleet sweep loops,
// scrub loops, and HTTP handlers all append concurrently.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) Snapshot() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// TestFleetE2E drives a full replica-fleet server over HTTP with the
// background machinery live: per-replica scrubbers ticking a mounted
// endurance substrate, the anti-entropy sweep loop running, and
// concurrent /predict traffic — all while one replica is corrupted
// through a replica-targeted /attack drill. Run under -race this is
// the fleet's integration lock-order check.
func TestFleetE2E(t *testing.T) {
	journalSink := &syncWriter{}
	srv, ts, ds := freshServer(t, Config{
		// Recovery substitutions would keep mutating replicas during
		// traffic; disable them so the convergence assertions below
		// race only against the machinery under test.
		DisableRecovery: true,
		Substrate:       &substrate.Config{Kind: "endurance", Seed: 11},
		ScrubTick:       5 * time.Millisecond,
		Journal:         fleet.NewJournal(journalSink),
		Fleet: &fleet.Config{
			Replicas: 3,
			AntiEntropy: fleet.AntiEntropyConfig{
				Interval: 10 * time.Millisecond,
				// Keep the drill below the quarantine threshold: this
				// test exercises pure chunk repair.
				QuarantineDivergence: 0.5,
			},
		},
	})
	_, _, cleanSys := problem(t)
	clean := cleanSys.Accuracy(ds.TestX, ds.TestY)

	// Fleet status endpoint reflects the configuration.
	var fs fleetResponse
	getJSON(t, ts.URL+"/fleet", &fs)
	if !fs.Enabled || fs.Replicas != 3 || fs.Quorum != 2 {
		t.Fatalf("unexpected /fleet document: %+v", fs)
	}

	// An attack without a replica target must be rejected in fleet
	// mode: "attack the fleet" is not a physical operation.
	resp, body := postJSON(t, ts.URL+"/attack", map[string]any{"kind": "random", "rate": 0.03})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("untargeted fleet attack: got %d, want 400 (%s)", resp.StatusCode, body)
	}

	// Concurrent /predict traffic while replica 0 takes a drill.
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				x := ds.TestX[(g*30+i)%len(ds.TestX)]
				resp, body := postJSON(t, ts.URL+"/predict", map[string]any{"x": x})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict: got %d (%s)", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	resp, body = postJSON(t, ts.URL+"/attack",
		map[string]any{"kind": "random", "rate": 0.03, "seed": 5, "replica": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica attack: got %d (%s)", resp.StatusCode, body)
	}
	wg.Wait()

	// The background sweep loop repairs the drilled replica back to
	// the cross-replica majority; wait for it to bite.
	flt := srv.Fleet()
	deadline := time.Now().Add(5 * time.Second)
	for flt.Status().RepairBits == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("anti-entropy never repaired the drilled replica: %+v", flt.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drive sweeps deterministically until the fleet converges (the
	// endurance substrate flips nothing without wear, so a clean sweep
	// re-arms the fast path).
	converged := false
	for i := 0; i < 10; i++ {
		rep, err := flt.SweepNow()
		if err != nil {
			t.Fatal(err)
		}
		if rep.DivergentBits == 0 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("fleet did not converge to zero divergence after repairs")
	}
	if !flt.Healthy() {
		t.Error("fast path not re-armed after a clean sweep")
	}

	// Quorum accuracy matches the clean model's: the drill was masked,
	// then repaired.
	preds, err := srv.PredictMany(ds.TestX)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i, p := range preds {
		if p.Class == ds.TestY[i] {
			got++
		}
	}
	acc := float64(got) / float64(len(preds))
	if acc < clean-0.01 {
		t.Errorf("post-repair quorum accuracy %.4f, want within 1pt of clean %.4f", acc, clean)
	}

	// /metrics carries the fleet section with the repair counters, and
	// the billing shows up on the drilled replica's substrate.
	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Fleet == nil {
		t.Fatal("/metrics missing fleet section")
	}
	if m.Fleet.Sweeps == 0 || m.Fleet.RepairBits == 0 {
		t.Errorf("fleet counters not live in /metrics: %+v", m.Fleet)
	}
	if len(m.Fleet.Replicas) != 3 {
		t.Fatalf("want 3 replica statuses, got %d", len(m.Fleet.Replicas))
	}
	var billed int64
	for _, r := range m.Fleet.Replicas {
		if r.Substrate != nil {
			billed += r.Substrate.WritesCharged
		}
	}
	if billed == 0 {
		t.Error("repair writes were not billed to any replica substrate")
	}

	// The journal replays cleanly and recorded the repair activity.
	events, err := fleet.Replay(bytes.NewReader(journalSink.Snapshot()))
	if err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[fleet.EventRepair] == 0 || kinds[fleet.EventSweep] == 0 {
		t.Errorf("journal missing repair/sweep events: %v", kinds)
	}
}
