package fleet_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// remoteProblem trains a small shared seed system once.
var remoteProblem struct {
	once sync.Once
	ds   *dataset.Dataset
	sys  *core.System
	err  error
}

func problem(t testing.TB) (*dataset.Dataset, *core.System) {
	t.Helper()
	p := &remoteProblem
	p.once.Do(func() {
		spec, ok := dataset.ByName("PAMAP")
		if !ok {
			p.err = errors.New("fleet: no PAMAP spec")
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

// snapshotOf serializes sys the way an operator's checkpoint file
// would carry it.
func snapshotOf(t testing.TB, sys *core.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startNodes boots n in-process node servers, each loading its own
// copy of the snapshot — the httptest analogue of n `servehd -node`
// processes started from the same checkpoint file.
func startNodes(t testing.TB, snap []byte, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		nodeSys, err := core.Load(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(nodeSys, serve.Config{NodeAPI: true, DisableRecovery: true})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { hs.Close(); srv.Close() })
		urls[i] = hs.URL
	}
	return urls
}

func newCluster(t testing.TB, cfg fleet.Config) *fleet.Cluster {
	t.Helper()
	co, err := fleet.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}
