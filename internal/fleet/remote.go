package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/bitvec"
)

// ErrNodeBad reports a node answering 4xx — the coordinator sent
// something the node rejected. These are never retried: a request the
// node refused once it will refuse identically on every attempt.
var ErrNodeBad = errors.New("fleet: node rejected request")

// ErrNodeDown reports a node unreachable (or persistently 5xx) after
// the bounded retry budget. The coordinator's failure ladder counts
// these toward taking the node out of rotation.
var ErrNodeDown = errors.New("fleet: node unreachable")

// nodeClient is the coordinator's HTTP client for one node. Every call
// is bounded by the per-request timeout and a small retry budget with
// doubling backoff; 4xx responses are terminal (no retry), network
// errors and 5xx are retried. The client carries no node state — the
// coordinator's failure ladder interprets the errors.
type nodeClient struct {
	base    string // http://host:port, no trailing slash
	hc      *http.Client
	retries int           // additional attempts after the first
	backoff time.Duration // first retry delay; doubles per retry
}

func newNodeClient(base string, timeout time.Duration, retries int, backoff time.Duration) (*nodeClient, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("fleet: node address %q is not an absolute URL", base)
	}
	u.Path, u.RawQuery, u.Fragment = "", "", ""
	return &nodeClient{
		base: u.String(),
		// Timeout covers the whole exchange — dial, write, node-side
		// work, and body read — so one stuck node can never hold a
		// quorum fan-out past the deadline.
		hc:      &http.Client{Timeout: timeout},
		retries: retries,
		backoff: backoff,
	}, nil
}

// do runs one HTTP exchange with retries and returns the response
// body. body (may be nil) is re-sent verbatim on every attempt.
func (c *nodeClient) do(method, path string, contentType string, body []byte) ([]byte, error) {
	var lastErr error
	delay := c.backoff
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNodeBad, err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		out, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300 && rerr == nil:
			return out, nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			// The node understood us and said no: retrying cannot help.
			return nil, fmt.Errorf("%w: %s %s: %d: %s", ErrNodeBad, method, path, resp.StatusCode, firstLine(out))
		default:
			if rerr != nil {
				lastErr = rerr
			} else {
				lastErr = fmt.Errorf("%s %s: %d: %s", method, path, resp.StatusCode, firstLine(out))
			}
		}
	}
	return nil, fmt.Errorf("%w: %s%s after %d attempts: %v", ErrNodeDown, c.base, path, c.retries+1, lastErr)
}

// firstLine truncates an error body for diagnostics.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// call sends in as a JSON body (none when nil) and unmarshals the
// response into out (skipped when nil).
func (c *nodeClient) call(method, path string, in, out any) error {
	var body []byte
	ctype := ""
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("%w: %v", ErrNodeBad, err)
		}
		ctype = "application/json"
	}
	resp, err := c.do(method, path, ctype, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrNodeDown, path, err)
	}
	return nil
}

// Score asks the node to encode and score a raw-feature batch.
func (c *nodeClient) Score(xs [][]float64, temperature float64) ([]int, []float64, error) {
	var out ScoreResponse
	if err := c.call(http.MethodPost, "/node/score", ScoreRequest{Xs: xs, Temperature: temperature}, &out); err != nil {
		return nil, nil, err
	}
	if len(out.Classes) != len(xs) || len(out.Confs) != len(xs) {
		return nil, nil, fmt.Errorf("%w: /node/score returned %d answers for %d queries", ErrNodeDown, len(out.Classes), len(xs))
	}
	return out.Classes, out.Confs, nil
}

// Summary fetches the node's chunk-hash divergence digest.
func (c *nodeClient) Summary(chunks int) (Summary, error) {
	var out Summary
	if err := c.call(http.MethodGet, fmt.Sprintf("/node/summary?chunks=%d", chunks), nil, &out); err != nil {
		return Summary{}, err
	}
	ok := len(out.Hashes) == out.Classes
	for _, row := range out.Hashes {
		ok = ok && len(row) == out.Chunks
	}
	if !ok {
		return Summary{}, fmt.Errorf("%w: malformed /node/summary from %s", ErrNodeDown, c.base)
	}
	return out, nil
}

// Chunks fetches and decodes the bits of the named chunks.
func (c *nodeClient) Chunks(refs []ChunkRef, dst []*bitvec.Vector) error {
	var resp ChunksResponse
	if err := c.call(http.MethodPost, "/node/chunks", ChunksRequest{Chunks: refs}, &resp); err != nil {
		return err
	}
	if len(resp.Chunks) != len(refs) {
		return fmt.Errorf("%w: /node/chunks returned %d chunks for %d refs", ErrNodeDown, len(resp.Chunks), len(refs))
	}
	for i, cd := range resp.Chunks {
		if err := dst[i].UnmarshalBinary(cd.Bits); err != nil || dst[i].Len() != refs[i].Hi-refs[i].Lo {
			return fmt.Errorf("%w: bad chunk payload from %s", ErrNodeDown, c.base)
		}
	}
	return nil
}

// Repair pushes majority chunk images onto the node.
func (c *nodeClient) Repair(refs []ChunkRef, images []*bitvec.Vector) error {
	push := make([]ChunkData, len(refs))
	for i, ref := range refs {
		b, err := images[i].MarshalBinary()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrNodeBad, err)
		}
		push[i] = ChunkData{Class: ref.Class, Lo: ref.Lo, Hi: ref.Hi, Bits: b}
	}
	return c.call(http.MethodPost, "/node/repair", RepairRequest{Chunks: push}, nil)
}

// Snapshot streams the node's stamped model image (the reseed donor
// side).
func (c *nodeClient) Snapshot(stamp float64) ([]byte, error) {
	return c.do(http.MethodGet, fmt.Sprintf("/node/snapshot?stamp=%g", stamp), "", nil)
}

// Reseed re-images the node from a stamped snapshot stream.
func (c *nodeClient) Reseed(image []byte) error {
	_, err := c.do(http.MethodPost, "/node/reseed", "application/octet-stream", image)
	return err
}

// Probe checks node liveness via /healthz without retries or side
// effects — the rejoin ladder wants the instantaneous answer, and a
// probe that has to retry is by definition a failed probe.
func (c *nodeClient) Probe() bool {
	req, err := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// JournalVerify asks the node to re-verify its own journal file
// against its live chain — the donor-trust gate before re-seeding
// from it. Nodes without a journal answer Enabled=false.
func (c *nodeClient) JournalVerify() (JournalVerifyResponse, error) {
	var out JournalVerifyResponse
	err := c.call(http.MethodGet, "/journal/verify", nil, &out)
	return out, err
}

// fillStatus names the node in its replica status.
func (c *nodeClient) fillStatus(rs *ReplicaStatus) { rs.Addr = c.base }

// Cluster is the replication engine over `servehd -node` processes:
// each replica lives in its own process (own substrate, recoverer,
// scrubber, journal) behind the node API, and survives what an
// in-process fleet cannot — process death. A killed node trips the
// failure ladder, the survivors keep answering, and sweeps probe it
// back into rotation when it returns.
type Cluster struct {
	*Coordinator[[]float64]
}

// NewCluster builds a coordinator over cfg.Nodes. It performs no
// network traffic — nodes are assumed reachable until proven
// otherwise. The fast path starts disarmed: the nodes were found on a
// network, and the first clean sweep proves them identical.
func NewCluster(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: no nodes configured")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	transports := make([]Replica[[]float64], len(cfg.Nodes))
	for i, addr := range cfg.Nodes {
		nc, err := newNodeClient(addr, cfg.Timeout, cfg.Retries, cfg.Backoff)
		if err != nil {
			return nil, err
		}
		transports[i] = nc
	}
	return &Cluster{newCoordinator(cfg, transports, false, true)}, nil
}

// Attack forwards a fault drill to one node's /attack endpoint (the
// node runs in single-model mode, so no replica field travels). Like
// Fleet.WithReplica, any external mutation routed through the
// coordinator invalidates the fast path first — a drill that landed
// while the fast path stayed armed would serve unvoted answers from a
// possibly-corrupted node.
func (cl *Cluster) Attack(id int, body []byte) ([]byte, error) {
	m, err := cl.member(id)
	if err != nil {
		return nil, err
	}
	cl.healthy.Store(false)
	resp, err := m.r.(*nodeClient).do(http.MethodPost, "/attack", "application/json", body)
	if err != nil {
		cl.noteFailure(m, err)
		return nil, err
	}
	cl.noteSuccess(m)
	return resp, nil
}
