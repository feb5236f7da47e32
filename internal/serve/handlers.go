package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fleet"
)

// maxBodyBytes bounds request bodies (training sets and snapshots
// included); oversized requests fail decoding rather than exhausting
// memory.
const maxBodyBytes = 256 << 20

// Handler returns the server's HTTP API:
//
//	POST /predict   {"x":[...]} or {"xs":[[...],...]} → predictions
//	POST /train     train a fresh system from inline data, or refine
//	                the live one in place ("online": true)
//	GET  /snapshot  binary core.Save checkpoint of the live system
//	POST /restore   install a checkpoint (the /snapshot format)
//	POST /attack    live bit-flip drill on the deployed model
//	GET  /metrics   operational counters + recovery stats + probe
//	GET  /journal/proof?seq=N  Merkle inclusion proof for a sealed
//	                journal event
//	GET  /journal/verify       re-verify the journal file vs the live
//	                chain (tamper check)
//	GET  /healthz   200 once a model is installed, 503 before
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", s.handlePredict)
	mux.HandleFunc("POST /train", s.handleTrain)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /restore", s.handleRestore)
	mux.HandleFunc("POST /attack", s.handleAttack)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	fleet.MountJournal(mux, s.cfg.Journal)
	if s.cfg.NodeAPI {
		s.registerNodeAPI(mux)
	}
	return mux
}

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps serving errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadInput):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNoModel):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrSuperseded):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return nil
}

// predictRequest accepts a single sample or a batch.
type predictRequest struct {
	X  []float64   `json:"x,omitempty"`
	Xs [][]float64 `json:"xs,omitempty"`
}

type predictResponse struct {
	Prediction  *Prediction  `json:"prediction,omitempty"`
	Predictions []Prediction `json:"predictions,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	switch {
	case req.X != nil && req.Xs != nil:
		writeErr(w, fmt.Errorf("%w: provide x or xs, not both", ErrBadInput))
	case req.X != nil:
		pred, err := s.Predict(req.X)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, predictResponse{Prediction: &pred})
	case len(req.Xs) > 0:
		preds, err := s.PredictMany(req.Xs)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, predictResponse{Predictions: preds})
	default:
		writeErr(w, fmt.Errorf("%w: empty request: provide x or xs", ErrBadInput))
	}
}

// trainRequest carries an inline training set plus the core
// configuration. ProbeX/ProbeY optionally install a held-out set for
// the accuracy probe in the same call. With Online set, the samples
// refine the live system in place through Server.RetrainOnline
// (RetrainEpochs mistake-driven epochs, default 1) instead of
// training a replacement; Classes/Dimensions/Levels/Seed are ignored
// — the live model's shape is authoritative.
type trainRequest struct {
	X       [][]float64 `json:"x"`
	Y       []int       `json:"y"`
	Classes int         `json:"classes"`

	Dimensions    int    `json:"dimensions,omitempty"`
	Levels        int    `json:"levels,omitempty"`
	RetrainEpochs int    `json:"retrain_epochs,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`

	Online bool `json:"online,omitempty"`

	// Backend selects the deployed representation: "" or "dense" keeps
	// the k class hypervectors; "loghd" compresses the freshly trained
	// model into log-compressed planes (ExtraPlanes redundancy planes on
	// top of ceil(log2 k)) before installing it.
	Backend     string `json:"backend,omitempty"`
	ExtraPlanes int    `json:"extra_planes,omitempty"`

	ProbeX [][]float64 `json:"probe_x,omitempty"`
	ProbeY []int       `json:"probe_y,omitempty"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Online {
		s.handleTrainOnline(w, &req)
		return
	}
	if len(req.X) == 0 || len(req.X) != len(req.Y) || req.Classes < 2 {
		writeErr(w, fmt.Errorf("%w: need x, matching y, and classes >= 2", ErrBadInput))
		return
	}
	cfg := core.Config{
		Dimensions:    req.Dimensions,
		Levels:        req.Levels,
		RetrainEpochs: req.RetrainEpochs,
		Seed:          req.Seed,
	}
	// Training is expensive; run it outside any lock and swap the
	// finished system in atomically.
	sys, err := core.Train(req.X, req.Y, req.Classes, cfg)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	switch req.Backend {
	case "", "dense":
	case "loghd":
		sys, err = sys.CompressLogHD(req.ExtraPlanes)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
			return
		}
	default:
		writeErr(w, fmt.Errorf("%w: unknown backend %q (want dense or loghd)", ErrBadInput, req.Backend))
		return
	}
	if err := s.install(sys); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.ProbeX) > 0 {
		if err := s.SetProbe(req.ProbeX, req.ProbeY); err != nil {
			writeErr(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"classes":    sys.Classes(),
		"dimensions": sys.Dimensions(),
		"features":   sys.Features(),
		"backend":    sys.Backend(),
	})
}

// handleTrainOnline is /train's in-place refinement path.
func (s *Server) handleTrainOnline(w http.ResponseWriter, req *trainRequest) {
	mistakes, err := s.RetrainOnline(req.X, req.Y, req.RetrainEpochs)
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(req.ProbeX) > 0 {
		if err := s.SetProbe(req.ProbeX, req.ProbeY); err != nil {
			writeErr(w, err)
			return
		}
	}
	sys := s.system()
	writeJSON(w, http.StatusOK, map[string]any{
		"online":         true,
		"final_mistakes": mistakes,
		"classes":        sys.Classes(),
		"dimensions":     sys.Dimensions(),
		"features":       sys.Features(),
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sys := s.system()
	if sys == nil {
		writeErr(w, ErrNoModel)
		return
	}
	// Stamp the snapshot with the latest probe accuracy when one ran,
	// so a later /restore (or rollback) can verify the image was taken
	// while the model was still healthy. Serialize under the writer
	// mutex so a concurrent recovery write, attack drill, or scrub tick
	// cannot tear the snapshot (the lock-free read path is unaffected).
	stamp := math.NaN()
	if s.metrics.probes.Load() > 0 {
		stamp = math.Float64frombits(s.metrics.probeAcc.Load())
	}
	s.writeSnapshot(w, sys, stamp)
}

// writeSnapshot serializes sys as a stamped binary checkpoint onto w,
// holding the writer mutex only for the serialization itself. When a
// journal with at least one seal is attached, the snapshot is anchored
// to the latest sealed Merkle root, binding the image to the healing
// history that produced it.
func (s *Server) writeSnapshot(w http.ResponseWriter, sys *core.System, stamp float64) {
	var anchor *core.JournalAnchor
	if a, ok := s.cfg.Journal.Anchor(); ok {
		anchor = &a
	}
	var buf bytes.Buffer
	s.mu.Lock()
	err := sys.SaveAnchored(&buf, stamp, anchor)
	s.mu.Unlock()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	sys, stamp, anchor, err := core.LoadAnchored(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		// Corrupted (CRC mismatch), truncated, or wrong-format
		// snapshots are the caller's fault, not the server's.
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	// A stamped snapshot whose held-out accuracy was already below the
	// checkpoint floor when it was taken is not a restore target — it
	// would install a degraded model as "known good". Unstamped (NaN)
	// snapshots carry no claim and install as before.
	if floor := s.cfg.Watchdog.MinCheckpointAccuracy; !math.IsNaN(stamp) && stamp < floor {
		writeErr(w, fmt.Errorf("%w: snapshot stamped at accuracy %.4f, below the %.4f checkpoint floor", ErrBadInput, stamp, floor))
		return
	}
	// An anchored snapshot claims descent from a sealed journal
	// lineage. When this server keeps a journal, the claim must verify
	// against it — a snapshot anchored to a foreign or rewritten
	// history is refused. Unanchored snapshots (RHS2, or taken before
	// the first seal) carry no claim; servers without a journal cannot
	// check one.
	if anchor != nil && s.cfg.Journal != nil {
		if verr := s.cfg.Journal.VerifyAnchor(*anchor); verr != nil {
			writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, verr))
			return
		}
	}
	if err := s.install(sys); err != nil {
		writeErr(w, err)
		return
	}
	resp := map[string]any{
		"classes":    sys.Classes(),
		"dimensions": sys.Dimensions(),
		"features":   sys.Features(),
	}
	if !math.IsNaN(stamp) {
		resp["stamped_accuracy"] = stamp
	}
	if anchor != nil {
		resp["journal_anchor_seq"] = anchor.SealedSeq
	}
	writeJSON(w, http.StatusOK, resp)
}

// attackRequest injects a live fault drill.
type attackRequest struct {
	// Kind is "random", "targeted", or "burst".
	Kind string `json:"kind"`
	// Rate is the flipped fraction for random/targeted drills.
	Rate float64 `json:"rate,omitempty"`
	// SpanFrac and FlipProb parameterize burst drills.
	SpanFrac float64 `json:"span_frac,omitempty"`
	FlipProb float64 `json:"flip_prob,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	// Replica targets one fleet member (fleet mode only, required
	// there — "attack the fleet" is not a physical operation; bit
	// flips land on one replica's memory).
	Replica *int `json:"replica,omitempty"`
}

func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req attackRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	sys := s.system()
	if sys == nil {
		writeErr(w, ErrNoModel)
		return
	}
	drill := func(target *core.System) (attack.Result, error) {
		switch req.Kind {
		case "random":
			return target.AttackRandom(req.Rate, req.Seed)
		case "targeted":
			return target.AttackTargeted(req.Rate, req.Seed)
		case "burst":
			return target.AttackBurst(req.SpanFrac, req.FlipProb, req.Seed)
		}
		return attack.Result{}, fmt.Errorf("%w: unknown attack kind %q", ErrBadInput, req.Kind)
	}
	var res attack.Result
	var err error
	if flt := s.fleet(); flt != nil {
		if req.Replica == nil {
			writeErr(w, fmt.Errorf("%w: fleet mode: specify \"replica\" (0..%d)", ErrBadInput, flt.Size()-1))
			return
		}
		err = flt.WithReplica(*req.Replica, func(target *core.System) error {
			var derr error
			res, derr = drill(target)
			return derr
		})
	} else {
		if req.Replica != nil {
			writeErr(w, fmt.Errorf("%w: \"replica\" %d targets a fleet member, but this server runs a single model", ErrBadInput, *req.Replica))
			return
		}
		// The drill rewrites deployed memory: writer mutex, like any
		// other model write, plus a full reimage publish (an attack may
		// touch any class).
		s.mu.Lock()
		res, err = drill(sys)
		if st := s.live.Load(); err == nil && st != nil && st.chain != nil && st.sys == sys && res.BitsFlipped > 0 {
			st.chain.Publish(sys.Freezer(), nil)
		}
		s.mu.Unlock()
	}
	if err != nil {
		if !errors.Is(err, ErrBadInput) {
			err = fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		writeErr(w, err)
		return
	}
	s.metrics.recordAttack(res.BitsFlipped)
	resp := map[string]any{
		"kind":         req.Kind,
		"bits_flipped": res.BitsFlipped,
		"elements_hit": res.ElementsHit,
	}
	if req.Replica != nil {
		resp["replica"] = *req.Replica
	}
	writeJSON(w, http.StatusOK, resp)
}

// fleetResponse is the /fleet status document.
type fleetResponse struct {
	Enabled bool `json:"enabled"`
	// Replicas/Quorum echo the configuration; Status carries the live
	// per-replica and fleet-wide counters.
	Replicas int           `json:"replicas,omitempty"`
	Quorum   int           `json:"quorum,omitempty"`
	Status   *fleet.Status `json:"status,omitempty"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	flt := s.fleet()
	if flt == nil {
		writeJSON(w, http.StatusOK, fleetResponse{Enabled: false})
		return
	}
	st := flt.Status()
	writeJSON(w, http.StatusOK, fleetResponse{
		Enabled:  true,
		Replicas: flt.Size(),
		Quorum:   flt.Quorum(),
		Status:   &st,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no model"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
