package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the cluster coordinator's HTTP API — the serve API's
// shape, answered by the whole cluster:
//
//	POST /predict  {"x":[...]} or {"xs":[[...],...]} → quorum answers
//	POST /attack   {"node":i, ...drill} → forwarded to node i
//	POST /sweep    run one anti-entropy sweep, return its report
//	GET  /cluster  coordinator + per-node status (nodes under "replicas")
//	GET  /journal/proof?seq=N  inclusion proof from the coordinator's
//	               own journal
//	GET  /journal/verify       re-verify the coordinator's journal
//	GET  /healthz  200 while at least one node is in rotation
func (cl *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", cl.handlePredict)
	mux.HandleFunc("POST /attack", cl.handleAttack)
	mux.HandleFunc("POST /sweep", cl.handleSweep)
	mux.HandleFunc("GET /cluster", cl.handleStatus)
	mux.HandleFunc("GET /healthz", cl.handleHealthz)
	MountJournal(mux, cl.journal)
	return mux
}

// MountJournal registers the journal endpoints of serve nodes and the
// coordinator alike, for journal j (nil answers proofs 400 and verify
// with Enabled=false):
//
//	GET /journal/proof?seq=N  Merkle inclusion proof for a sealed event;
//	                it verifies against the root carried by the seal
//	                event at proof.seal_seq, and against the anchor in
//	                any snapshot taken after that seal
//	GET /journal/verify       the journal file re-verified against the
//	                live chain — also the coordinator's donor-trust gate
func MountJournal(mux *http.ServeMux, j *Journal) {
	mux.HandleFunc("GET /journal/proof", func(w http.ResponseWriter, r *http.Request) {
		if j == nil {
			coordErr(w, http.StatusBadRequest, errors.New("no journal configured"))
			return
		}
		seq, err := strconv.ParseInt(r.URL.Query().Get("seq"), 10, 64)
		if err != nil || seq <= 0 {
			coordErr(w, http.StatusBadRequest, errors.New("provide seq=N (a sealed journal sequence number)"))
			return
		}
		p, err := j.Proof(seq)
		if err != nil {
			coordErr(w, http.StatusNotFound, err)
			return
		}
		coordJSON(w, http.StatusOK, p)
	})
	mux.HandleFunc("GET /journal/verify", func(w http.ResponseWriter, r *http.Request) {
		coordJSON(w, http.StatusOK, VerifyJournalDoc(j))
	})
}

func coordJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func coordErr(w http.ResponseWriter, status int, err error) {
	coordJSON(w, status, map[string]string{"error": err.Error()})
}

// maxCoordBody bounds coordinator request bodies.
const maxCoordBody = 64 << 20

type coordPredictRequest struct {
	X  []float64   `json:"x,omitempty"`
	Xs [][]float64 `json:"xs,omitempty"`
}

// ClusterPrediction is one quorum-answered classification.
type ClusterPrediction struct {
	Class      int     `json:"class"`
	Confidence float64 `json:"confidence"`
}

type coordPredictResponse struct {
	Prediction  *ClusterPrediction  `json:"prediction,omitempty"`
	Predictions []ClusterPrediction `json:"predictions,omitempty"`
}

func (cl *Cluster) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req coordPredictRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxCoordBody)).Decode(&req); err != nil {
		coordErr(w, http.StatusBadRequest, err)
		return
	}
	var xs [][]float64
	switch {
	case req.X != nil && req.Xs != nil:
		coordErr(w, http.StatusBadRequest, errors.New("provide x or xs, not both"))
		return
	case req.X != nil:
		xs = [][]float64{req.X}
	case len(req.Xs) > 0:
		xs = req.Xs
	default:
		coordErr(w, http.StatusBadRequest, errors.New("empty request: provide x or xs"))
		return
	}
	classes, confs, err := cl.ScoreBatch(xs, cl.cfg.Temperature)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, ErrNodeBad) {
			// The node vetoed the batch (wrong arity, bad values): the
			// client's fault, not the cluster's.
			status = http.StatusBadRequest
		}
		coordErr(w, status, err)
		return
	}
	preds := make([]ClusterPrediction, len(classes))
	for i := range classes {
		preds[i] = ClusterPrediction{Class: classes[i], Confidence: confs[i]}
	}
	if req.X != nil {
		coordJSON(w, http.StatusOK, coordPredictResponse{Prediction: &preds[0]})
		return
	}
	coordJSON(w, http.StatusOK, coordPredictResponse{Predictions: preds})
}

// coordAttackRequest is serve's attack document plus the target node.
type coordAttackRequest struct {
	Node     *int    `json:"node"`
	Kind     string  `json:"kind"`
	Rate     float64 `json:"rate,omitempty"`
	SpanFrac float64 `json:"span_frac,omitempty"`
	FlipProb float64 `json:"flip_prob,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
}

func (cl *Cluster) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req coordAttackRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxCoordBody)).Decode(&req); err != nil {
		coordErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Node == nil {
		coordErr(w, http.StatusBadRequest, fmt.Errorf("specify \"node\" (0..%d)", len(cl.members)-1))
		return
	}
	// Forward the drill without the routing field; the node runs
	// single-model and rejects replica-targeted requests.
	body, err := json.Marshal(map[string]any{
		"kind": req.Kind, "rate": req.Rate,
		"span_frac": req.SpanFrac, "flip_prob": req.FlipProb, "seed": req.Seed,
	})
	if err != nil {
		coordErr(w, http.StatusBadRequest, err)
		return
	}
	resp, err := cl.Attack(*req.Node, body)
	if err != nil {
		switch {
		case errors.Is(err, ErrNodeBad):
			coordErr(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrNodeDown):
			coordErr(w, http.StatusBadGateway, err)
		default:
			// Out-of-range node id.
			coordErr(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp)
}

func (cl *Cluster) handleSweep(w http.ResponseWriter, r *http.Request) {
	rep, err := cl.SweepNow()
	if err != nil {
		coordJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error(), "report": rep})
		return
	}
	coordJSON(w, http.StatusOK, rep)
}

func (cl *Cluster) handleStatus(w http.ResponseWriter, r *http.Request) {
	coordJSON(w, http.StatusOK, cl.Status())
}

func (cl *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if len(cl.actives()) == 0 {
		coordJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no active nodes"})
		return
	}
	coordJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
