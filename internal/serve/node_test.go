package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fleet"
)

func nodeServer(t testing.TB) (*Server, string) {
	t.Helper()
	srv, ts, _ := freshServer(t, Config{NodeAPI: true, DisableRecovery: true})
	return srv, ts.URL
}

// TestNodeScoreMatchesDirectModel pins the score endpoint against the
// in-process answer: the node encodes raw features itself, so a batch
// scored over the wire must equal PredictWithConfidence on the same
// system.
func TestNodeScoreMatchesDirectModel(t *testing.T) {
	srv, url := nodeServer(t)
	ds, _, _ := problem(t)
	xs := ds.TestX[:8]
	const temp = 0.05

	resp, body := postJSON(t, url+"/node/score", fleet.ScoreRequest{Xs: xs, Temperature: temp})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d: %s", resp.StatusCode, body)
	}
	var out fleet.ScoreResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	sys := srv.system()
	encoded := sys.EncodeAllParallel(xs, 0)
	m := sys.Model()
	for i, q := range encoded {
		class, conf := m.PredictWithConfidence(q, temp)
		if out.Classes[i] != class || out.Confs[i] != conf {
			t.Fatalf("query %d: wire (%d, %v) != direct (%d, %v)", i, out.Classes[i], out.Confs[i], class, conf)
		}
	}
	if got := srv.MetricsSnapshot().Node.Scored; got != int64(len(xs)) {
		t.Fatalf("node scored metric = %d, want %d", got, len(xs))
	}
}

// TestNodeAPIRejectsBadRequests pins the node API's 400 wall: every
// malformed id, range, or payload is rejected before any model access.
func TestNodeAPIRejectsBadRequests(t *testing.T) {
	srv, url := nodeServer(t)
	sys := srv.system()
	dims := sys.Dimensions()

	// A structurally valid bitvec whose length disagrees with the range
	// it claims to patch.
	short := bitvec.New(8)
	shortBits, err := short.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	jsonCases := []struct {
		name, path string
		body       any
	}{
		{"score empty batch", "/node/score", fleet.ScoreRequest{Temperature: 0.1}},
		{"score negative temperature", "/node/score", fleet.ScoreRequest{Xs: [][]float64{{1}}, Temperature: -1}},
		{"score feature mismatch", "/node/score", fleet.ScoreRequest{Xs: [][]float64{{1, 2, 3}}, Temperature: 0.1}},
		{"chunks empty", "/node/chunks", fleet.ChunksRequest{}},
		{"chunks class out of range", "/node/chunks", fleet.ChunksRequest{Chunks: []fleet.ChunkRef{{Class: 99, Lo: 0, Hi: 64}}}},
		{"chunks negative class", "/node/chunks", fleet.ChunksRequest{Chunks: []fleet.ChunkRef{{Class: -1, Lo: 0, Hi: 64}}}},
		{"chunks inverted range", "/node/chunks", fleet.ChunksRequest{Chunks: []fleet.ChunkRef{{Class: 0, Lo: 64, Hi: 64}}}},
		{"chunks range past dims", "/node/chunks", fleet.ChunksRequest{Chunks: []fleet.ChunkRef{{Class: 0, Lo: 0, Hi: dims + 1}}}},
		{"repair empty", "/node/repair", fleet.RepairRequest{}},
		{"repair garbage bits", "/node/repair", fleet.RepairRequest{Chunks: []fleet.ChunkData{{Class: 0, Lo: 0, Hi: 64, Bits: []byte("nope")}}}},
		{"repair wrong-length bits", "/node/repair", fleet.RepairRequest{Chunks: []fleet.ChunkData{{Class: 0, Lo: 0, Hi: 64, Bits: shortBits}}}},
		{"repair bad range", "/node/repair", fleet.RepairRequest{Chunks: []fleet.ChunkData{{Class: 0, Lo: -1, Hi: 64, Bits: shortBits}}}},
	}
	for _, tc := range jsonCases {
		resp, body := postJSON(t, url+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}

	getCases := []struct{ name, path string }{
		{"summary zero chunks", "/node/summary?chunks=0"},
		{"summary chunks past dims", "/node/summary?chunks=1000000"},
		{"summary non-numeric chunks", "/node/summary?chunks=lots"},
		{"snapshot stamp above one", "/node/snapshot?stamp=1.5"},
		{"snapshot negative stamp", "/node/snapshot?stamp=-0.1"},
		{"snapshot non-numeric stamp", "/node/snapshot?stamp=best"},
	}
	for _, tc := range getCases {
		resp, err := http.Get(url + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Reseed: garbage stream, then a shape-mismatched donor. Both must
	// bounce before touching the live model.
	resp, err := http.Post(url+"/node/reseed", "application/octet-stream", bytes.NewReader([]byte("not a snapshot")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reseed garbage: status %d, want 400", resp.StatusCode)
	}

	ds, spec, _ := problem(t)
	donor, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 2048, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.SaveStamped(&buf, 0.9); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(url+"/node/reseed", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reseed shape mismatch: status %d, want 400", resp.StatusCode)
	}

	// After all that abuse the model must be untouched and still serving.
	resp, body := postJSON(t, url+"/node/score", fleet.ScoreRequest{Xs: ds.TestX[:1], Temperature: 0.05})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after rejections: status %d: %s", resp.StatusCode, body)
	}
	if got := srv.MetricsSnapshot().Node.Repairs; got != 0 {
		t.Fatalf("rejected repairs were counted: %d", got)
	}
}

// TestAttackRejectsReplicaOnSingleModel pins the routing 400: a
// replica-targeted drill against a single-model server is a client
// error, not a silent whole-model attack.
func TestAttackRejectsReplicaOnSingleModel(t *testing.T) {
	_, ts, _ := freshServer(t, Config{DisableRecovery: true})
	replica := 0
	resp, body := postJSON(t, ts.URL+"/attack", map[string]any{
		"kind": "random", "rate": 0.01, "replica": replica,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single-model replica attack: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestNewRejectsNodeAPIWithFleet pins the config conflict: a node IS
// one replica, so stacking an in-process fleet inside it would nest
// quorums.
func TestNewRejectsNodeAPIWithFleet(t *testing.T) {
	_, _, sys := problem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(clone, Config{
		NodeAPI:         true,
		Fleet:           &fleet.Config{Replicas: 3},
		DisableRecovery: true,
	})
	if err == nil {
		t.Fatal("NodeAPI + Fleet accepted, want error")
	}
}
