package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fleet"
)

// Node API: the server-side half of the networked replica fleet
// (fleet.Cluster). A servehd process started with -node is one
// replica — its own substrate, recoverer, scrubber, and journal — and
// these handlers are the narrow surface the cluster coordinator drives
// it through:
//
//	POST /node/score    encode + score a raw-feature batch locally
//	GET  /node/summary  per-class chunk hashes of the deployed model
//	POST /node/chunks   fetch the bits of named chunks
//	POST /node/repair   overwrite named chunks with majority images
//	GET  /node/snapshot stream a stamped core.SaveStamped image
//	POST /node/reseed   re-image the deployed model from such a stream
//
// Every handler validates ids and ranges before touching the model and
// answers 400 on anything out of range — a confused or malicious
// coordinator must not be able to panic a node. Scoring and summaries
// run lock-free against the current model epoch; repair and reseed
// take the writer mutex, bill their writes to the node's substrate
// exactly like in-process anti-entropy, and publish the classes they
// rewrote as a new epoch.

// registerNodeAPI mounts the node endpoints (Handler calls it when
// Config.NodeAPI is set).
func (s *Server) registerNodeAPI(mux *http.ServeMux) {
	mux.HandleFunc("POST /node/score", s.handleNodeScore)
	mux.HandleFunc("GET /node/summary", s.handleNodeSummary)
	mux.HandleFunc("POST /node/chunks", s.handleNodeChunks)
	mux.HandleFunc("POST /node/repair", s.handleNodeRepair)
	mux.HandleFunc("GET /node/snapshot", s.handleNodeSnapshot)
	mux.HandleFunc("POST /node/reseed", s.handleNodeReseed)
}

// handleNodeScore encodes and scores a batch against the local model.
// The coordinator ships raw features, not encoded hypervectors: the
// encoder is derived deterministically from (seed, config), so every
// node that loaded the same snapshot encodes bit-identically, and the
// wire stays narrow.
func (s *Server) handleNodeScore(w http.ResponseWriter, r *http.Request) {
	var req fleet.ScoreRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	if len(req.Xs) == 0 {
		writeErr(w, fmt.Errorf("%w: empty batch", ErrBadInput))
		return
	}
	if math.IsNaN(req.Temperature) || math.IsInf(req.Temperature, 0) || req.Temperature < 0 {
		writeErr(w, fmt.Errorf("%w: temperature %v", ErrBadInput, req.Temperature))
		return
	}
	want := sys.Features()
	for i, x := range req.Xs {
		if len(x) != want {
			writeErr(w, fmt.Errorf("%w: sample %d has %d features, want %d", ErrBadInput, i, len(x), want))
			return
		}
	}
	encoded := sys.EncodeAllParallel(req.Xs, s.cfg.EncodeWorkers)
	resp := fleet.ScoreResponse{
		Classes: make([]int, len(encoded)),
		Confs:   make([]float64, len(encoded)),
	}
	ep := st.chain.Acquire()
	img := ep.Frozen()
	for i, q := range encoded {
		resp.Classes[i], resp.Confs[i] = img.PredictWithConfidence(q, req.Temperature)
	}
	ep.Release()
	s.metrics.nodeScored.Add(int64(len(encoded)))
	writeJSON(w, http.StatusOK, resp)
}

// handleNodeSummary reports per-class chunk hashes of the deployed
// class hypervectors — the divergence digest anti-entropy compares
// across nodes instead of shipping full models.
func (s *Server) handleNodeSummary(w http.ResponseWriter, r *http.Request) {
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	chunks, err := queryInt(r, "chunks", 64)
	if err != nil {
		writeErr(w, err)
		return
	}
	dims := sys.Dimensions()
	if chunks < 1 || chunks > dims {
		writeErr(w, fmt.Errorf("%w: chunks %d out of [1,%d]", ErrBadInput, chunks, dims))
		return
	}
	ep := st.chain.Acquire()
	sum := fleet.SummaryOf(ep.Frozen(), chunks)
	ep.Release()
	writeJSON(w, http.StatusOK, sum)
}

// handleNodeChunks returns the bits of the named chunks so the
// coordinator can majority-vote only where summaries disagree.
func (s *Server) handleNodeChunks(w http.ResponseWriter, r *http.Request) {
	var req fleet.ChunksRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	if len(req.Chunks) == 0 {
		writeErr(w, fmt.Errorf("%w: no chunks requested", ErrBadInput))
		return
	}
	for _, ref := range req.Chunks {
		if err := s.checkChunkRef(sys, ref.Class, ref.Lo, ref.Hi); err != nil {
			writeErr(w, err)
			return
		}
	}
	resp := fleet.ChunksResponse{Chunks: make([]fleet.ChunkData, len(req.Chunks))}
	ep := st.chain.Acquire()
	img := ep.Frozen()
	for i, ref := range req.Chunks {
		bits, err := img.ClassVector(ref.Class).Slice(ref.Lo, ref.Hi).MarshalBinary()
		if err != nil {
			ep.Release()
			writeErr(w, err)
			return
		}
		resp.Chunks[i] = fleet.ChunkData{Class: ref.Class, Lo: ref.Lo, Hi: ref.Hi, Bits: bits}
	}
	ep.Release()
	writeJSON(w, http.StatusOK, resp)
}

// handleNodeRepair overwrites the named chunks with coordinator-voted
// majority images. Every pushed range is billed to the substrate as
// hi-lo writes — the same wear anti-entropy charges in process — and
// journaled per chunk with the bits that actually changed.
func (s *Server) handleNodeRepair(w http.ResponseWriter, r *http.Request) {
	var req fleet.RepairRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	if len(req.Chunks) == 0 {
		writeErr(w, fmt.Errorf("%w: no chunks pushed", ErrBadInput))
		return
	}
	refs := make([]fleet.ChunkRef, len(req.Chunks))
	patches := make([]*bitvec.Vector, len(req.Chunks))
	for i, cd := range req.Chunks {
		if err := s.checkChunkRef(sys, cd.Class, cd.Lo, cd.Hi); err != nil {
			writeErr(w, err)
			return
		}
		v := new(bitvec.Vector)
		if err := v.UnmarshalBinary(cd.Bits); err != nil {
			writeErr(w, fmt.Errorf("%w: chunk %d: %v", ErrBadInput, i, err))
			return
		}
		if v.Len() != cd.Hi-cd.Lo {
			writeErr(w, fmt.Errorf("%w: chunk %d carries %d bits for range [%d,%d)", ErrBadInput, i, v.Len(), cd.Lo, cd.Hi))
			return
		}
		refs[i], patches[i] = fleet.ChunkRef{Class: cd.Class, Lo: cd.Lo, Hi: cd.Hi}, v
	}
	changed := make([]int, len(refs))
	out := fleet.RepairResponse{Applied: len(refs), Bits: fleet.BitsIn(refs)}
	s.mu.Lock()
	m := sys.Model()
	for i, ref := range refs {
		changed[i] = m.ClassVector(ref.Class).Slice(ref.Lo, ref.Hi).Hamming(patches[i])
	}
	fleet.RepairChunks(m, refs, patches, st.sub, st.chain)
	st.publishSubStats()
	s.mu.Unlock()
	for i, ref := range refs {
		s.journalAppend(fleet.Event{Kind: fleet.EventRepair, Replica: -1,
			Class: ref.Class, Chunk: -1, Bits: changed[i],
			Detail: fmt.Sprintf("pushed [%d,%d)", ref.Lo, ref.Hi)})
	}
	s.metrics.nodeRepairs.Add(int64(len(req.Chunks)))
	s.metrics.nodeRepairBits.Add(int64(out.Bits))
	writeJSON(w, http.StatusOK, out)
}

// handleNodeSnapshot streams a stamped snapshot of the live system.
// The stamp is supplied by the coordinator (the donor's measured
// agreement with the fleet majority); absent, the image goes out
// unstamped.
func (s *Server) handleNodeSnapshot(w http.ResponseWriter, r *http.Request) {
	sys := s.system()
	if sys == nil {
		writeErr(w, ErrNoModel)
		return
	}
	stamp := math.NaN()
	if raw := r.URL.Query().Get("stamp"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || v < 0 || v > 1 {
			writeErr(w, fmt.Errorf("%w: stamp %q out of [0,1]", ErrBadInput, raw))
			return
		}
		stamp = v
	}
	s.writeSnapshot(w, sys, stamp)
}

// handleNodeReseed re-images the deployed class hypervectors from a
// stamped snapshot stream — the network form of the fleet's
// quarantine re-seed. The CRC trailer is verified before any bit is
// trusted, the shape must match the live system, and the full-image
// rewrite is billed and refreshed exactly like the in-process path:
// decayed cells recharge, wear survives.
func (s *Server) handleNodeReseed(w http.ResponseWriter, r *http.Request) {
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	donor, stamp, donorAnchor, err := core.LoadAnchored(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	if donor.Classes() != sys.Classes() || donor.Dimensions() != sys.Dimensions() || donor.Features() != sys.Features() {
		writeErr(w, fmt.Errorf("%w: donor shape (%d classes, D=%d, %d features) != live (%d, %d, %d)",
			ErrBadInput, donor.Classes(), donor.Dimensions(), donor.Features(),
			sys.Classes(), sys.Dimensions(), sys.Features()))
		return
	}
	bits := sys.Classes() * sys.Dimensions()
	s.mu.Lock()
	fleet.Reimage(sys, donor, st.sub, st.chain)
	st.publishSubStats()
	s.mu.Unlock()
	s.metrics.nodeReseeds.Add(1)
	detail := "unstamped donor image"
	if !math.IsNaN(stamp) {
		detail = fmt.Sprintf("donor agreement %.4f", stamp)
	}
	if donorAnchor != nil {
		// The donor's journal anchor is foreign to this node's journal —
		// it cannot be verified here (the coordinator's donor gate does
		// that) — but recording it makes the reseed's lineage auditable:
		// this journal line names exactly which sealed history the new
		// image descends from.
		detail += fmt.Sprintf(", donor journal root %x@%d", donorAnchor.Root, donorAnchor.SealedSeq)
	}
	s.journalAppend(fleet.Event{Kind: fleet.EventReseed, Replica: -1, Class: -1, Chunk: -1,
		Bits: bits, Detail: detail})
	resp := map[string]any{"classes": sys.Classes(), "dimensions": sys.Dimensions(), "bits": bits}
	if !math.IsNaN(stamp) {
		resp["stamp"] = stamp
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkChunkRef rejects out-of-range chunk coordinates before any
// model access — the node API's 400 wall.
func (s *Server) checkChunkRef(sys *core.System, class, lo, hi int) error {
	if class < 0 || class >= sys.Classes() {
		return fmt.Errorf("%w: class %d out of [0,%d)", ErrBadInput, class, sys.Classes())
	}
	if lo < 0 || hi > sys.Dimensions() || lo >= hi {
		return fmt.Errorf("%w: range [%d,%d) out of [0,%d)", ErrBadInput, lo, hi, sys.Dimensions())
	}
	return nil
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", ErrBadInput, name, raw)
	}
	return v, nil
}
