package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hdc/model"
	"repro/internal/serve"
)

const (
	// replayRows caps the rows replayed through the layers, so replay
	// time stays small next to the window.
	replayRows = 6400
	// publishes and sweeps are how many Publish and SweepNow calls the
	// replay times; the metrics are their medians.
	publishes = 256
	sweeps    = 5
)

// span is one timed call: a layer boundary crossed for one request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Rows   int    `json:"rows"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	// live switches the handler's live spans on and off.
	live   atomic.Bool
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a span that started at start and ends now.
func (t *tracer) record(name string, parent, req int64, rows int, start time.Time) span {
	s := span{
		ID: t.nextID.Add(1), Parent: parent, Name: name, Req: req, Rows: rows,
		Start: int64(start.Sub(t.origin)), End: int64(time.Since(t.origin)),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// perRow is the mean duration per row of the named spans.
func (t *tracer) perRow(name string) float64 {
	var ns, rows int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += int64(s.dur())
			rows += int64(s.Rows)
		}
	}
	if rows == 0 {
		return 0
	}
	return float64(ns) / float64(rows)
}

// medianNs is the median duration of the named spans.
func (t *tracer) medianNs(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.dur()))
		}
	}
	return median(d)
}

// meanNs is the mean duration of the named spans.
func (t *tracer) meanNs(name string) float64 {
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.dur())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler wraps h in one span per /predict request.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.live.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/predict" {
			id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
			rows, _ := strconv.Atoi(r.Header.Get(rowsHeader))
			t.record("serve.handler.live", 0, id, rows, start)
		}
	})
}

// runTraced measures the per-layer metrics.
func runTraced(w workload, ds *dataset.Dataset, o options) (report, error) {
	var r report
	sd := deriveSeeds(o.seed)
	half := o.window / 2

	// Phase A: servehd, untraced: the server's own counters and the
	// client's cost.
	a, _, err := againstServehd(w, ds, o, sd, 1, half)
	r.Attempted, r.Failed = a.tally()
	if err != nil {
		return r, err
	}

	// Phase B: the same workload against an in-process server with its
	// handler wrapped in a span.
	t := newTracer()
	start := time.Now()
	sys, err := core.Train(ds.TrainX, ds.TrainY, ds.Spec.Classes, w.coreConfig(sd.server))
	if err != nil {
		return r, err
	}
	t.record("core.train", 0, 0, len(ds.TrainX), start)
	// The replay's private copy, taken before the server's recovery
	// loop starts writing to sys.
	clean := sys.Fork()
	cfg := w.serveConfig(sd.server, o.noRecover)
	srv, err := serve.New(sys, cfg)
	if err != nil {
		return r, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	hs := &http.Server{Handler: tracedHandler(t, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newClient("http://"+ln.Addr().String(), ds.TestY, ds.Spec.Classes)
	src := newSource(ds.TestX, w.rows, sd.rows)
	// Tracing is on in even slices and off in odd ones, so the traced
	// and untraced throughputs come from the same process and model.
	b, err := measure(w, c, src, half, sd, nil, func(i int) { t.live.Store(i%2 == 0) })
	c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = hs.Shutdown(ctx)
	cancel()
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	at, af := b.tally()
	r.Attempted += at
	r.Failed += af
	if err != nil {
		return r, err
	}

	// Phase C: replay the window's rows through each layer's calls.
	rp := replayer{t: t, w: w, ds: ds, sd: sd, srv: srv, reqs: replaySet(b.outs)}
	if err := rp.run(clean, cfg, o.noRecover); err != nil {
		return r, err
	}
	if o.spans != "" {
		if err := t.write(filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))); err != nil {
			return r, err
		}
	}
	r.Correct = true

	d := diffCounters(a.before, a.after)
	handler := t.perRow("serve.handler")
	pool := t.perRow("serve.pool")
	encode := t.perRow("core.encode")
	score := t.perRow("model.score")
	fleetScore := t.perRow("fleet.score")
	scoreLayer := score
	if w.replicas > 0 {
		scoreLayer = fleetScore
	}
	lag := make([]time.Duration, len(a.outs))
	for i, o := range a.outs {
		lag[i] = o.lag()
	}
	slices.Sort(lag)
	var ok, failed int64
	for _, o := range a.outs {
		if o.err == nil {
			ok++
		} else {
			failed++
		}
	}
	var on, off []float64
	for i, pps := range b.slicePPS() {
		if i%2 == 0 {
			on = append(on, pps)
		} else {
			off = append(off, pps)
		}
	}
	// A window of one slice has no untraced slice to compare with.
	untraced, traced, overhead := median(off), median(on), 0.0
	if untraced > 0 {
		overhead = 1 - traced/untraced
	}

	r.note("env kernel=%s nproc=%d go=%s", a.kernel, runtime.NumCPU(), runtime.Version())
	r.note("workload %s seed %d traced run: %d replayed requests, %d spans", w.name, o.seed, len(rp.reqs), len(t.spans))
	r.note("%-14s %12s %14s %8s", "layer", "ns/row", "self ns/row", "self%")
	for _, l := range []struct {
		name     string
		ns, self float64
	}{
		{"serve.handler", handler, handler - pool},
		{"serve.pool", pool, pool - encode - scoreLayer},
		{"core.encode", encode, encode},
		{"model.score", score, score},
		{"fleet.score", fleetScore, fleetScore},
	} {
		r.note("%-14s %12.0f %14.0f %7.1f%%", l.name, l.ns, l.self, 100*l.self/handler)
	}

	r.add("serve.handler.ns_per_row", handler, "ns/row")
	r.add("serve.handler.self_ns_per_row", handler-pool, "ns/row")
	r.add("serve.pool.ns_per_row", pool, "ns/row")
	r.add("serve.pool.self_ns_per_row", pool-encode-scoreLayer, "ns/row")
	r.add("serve.pool.mean_batch", ratio(d.predictions, d.batches), "rows/batch")
	r.add("core.encode.ns_per_row", encode, "ns/row")
	r.add("model.score.ns_per_row", score, "ns/row")
	r.add("model.publish.ns", t.medianNs("model.publish"), "ns")
	r.add("model.epochs.published", float64(d.epochsPublished), "count")
	r.add("model.epochs.backlog", float64(d.epochsBacklog), "count")
	r.add("recovery.observe.ns", t.meanNs("recovery.observe"), "ns")
	r.add("recovery.trusted_share", ratio(d.trusted, d.predictions), "ratio")
	r.add("recovery.faulty_chunks", float64(d.faultyChunks), "count")
	r.add("recovery.bits_substituted", float64(d.bitsSubstituted), "count")
	r.add("recovery.dropped", float64(d.dropped), "count")
	r.add("fleet.score.ns_per_row", fleetScore, "ns/row")
	r.add("fleet.sweep.ns", t.medianNs("fleet.sweep"), "ns")
	r.add("fleet.fast_share", ratio(d.fastPredicts, d.fastPredicts+d.quorumPredicts), "ratio")
	r.add("fleet.escalations", float64(d.escalations), "count")
	r.add("fleet.repair_bits", float64(d.repairBits), "count")
	r.add("fleet.reseeds", float64(d.reseeds), "count")
	r.add("core.train.ns", t.meanNs("core.train"), "ns")
	r.add("client.cpu_share", a.clientCPU.Seconds()/(a.end.Sub(a.start).Seconds()*float64(runtime.NumCPU())), "ratio")
	r.add("client.lag_ms", ms(quantile(lag, 0.99)), "ms")
	r.add("client.requests_sent", float64(len(a.outs)), "count")
	r.add("client.requests_ok", float64(ok), "count")
	r.add("client.requests_failed", float64(failed), "count")
	r.add("trace.untraced_pps", untraced, "pred/s")
	r.add("trace.traced_pps", traced, "pred/s")
	r.add("trace.overhead_share", overhead, "ratio")
	return r, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replaySet is the window's requests in the order they were made, up
// to replayRows rows.
func replaySet(outs []outcome) []*request {
	reqs := make([]*request, 0, len(outs))
	for _, o := range outs {
		reqs = append(reqs, o.req)
	}
	slices.SortFunc(reqs, func(a, b *request) int { return cmp.Compare(a.id, b.id) })
	rows := 0
	for i, q := range reqs {
		if rows += len(q.rows); rows >= replayRows {
			return reqs[:i+1]
		}
	}
	return reqs
}

// replayer times each layer's public calls on the recorded rows.
type replayer struct {
	t    *tracer
	w    workload
	ds   *dataset.Dataset
	sd   seeds
	srv  *serve.Server
	reqs []*request
}

func (rp *replayer) rows(q *request) [][]float64 {
	xs := make([][]float64, len(q.rows))
	for i, row := range q.rows {
		xs[i] = rp.ds.TestX[row]
	}
	return xs
}

// each runs call for every recorded request over conns goroutines,
// the traffic's own concurrency.
func (rp *replayer) each(call func(i int, q *request) error) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rp.reqs) || errs[g] != nil {
					return
				}
				errs[g] = call(i, rp.reqs[i])
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// run replays the layers from the outside in. A layer's span on a
// request is parented by the span of the layer that calls it, so self
// time is a span minus its children on the same rows.
func (rp *replayer) run(clean *core.System, cfg serve.Config, noRecover bool) error {
	t := rp.t
	n := len(rp.reqs)
	handlerIDs, poolIDs := make([]int64, n), make([]int64, n)
	h := rp.srv.Handler()
	k := rp.ds.Spec.Classes
	err := rp.each(func(i int, q *request) error {
		hr := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(q.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, hr)
		handlerIDs[i] = t.record("serve.handler", 0, q.id, len(q.rows), start).ID
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay handler: status %d", rec.Code)
		}
		_, err := checkResponse(rec.Body.Bytes(), len(q.rows), k)
		return err
	})
	if err != nil {
		return err
	}
	if err := rp.each(func(i int, q *request) error {
		xs := rp.rows(q)
		start := time.Now()
		_, err := rp.srv.PredictMany(xs)
		poolIDs[i] = t.record("serve.pool", handlerIDs[i], q.id, len(q.rows), start).ID
		return err
	}); err != nil {
		return fmt.Errorf("replay pool: %w", err)
	}

	encoded := make([][]*bitvec.Vector, n)
	_ = rp.each(func(i int, q *request) error {
		xs := rp.rows(q)
		start := time.Now()
		encoded[i] = clean.EncodeAllParallel(xs, cfg.EncodeWorkers)
		t.record("core.encode", poolIDs[i], q.id, len(q.rows), start)
		return nil
	})

	// Scoring: the model layer on every workload, and the fleet on the
	// fleet workload, where the pool scores through it.
	chain := model.NewEpochChain(clean.Freezer())
	var trustedMu sync.Mutex
	var trusted []*bitvec.Vector
	gate, temp := cfg.Recovery.ConfidenceThreshold, cfg.Recovery.Temperature
	_ = rp.each(func(i int, q *request) error {
		var hit []*bitvec.Vector
		start := time.Now()
		ep := chain.Acquire()
		img := ep.Frozen()
		for _, v := range encoded[i] {
			if _, conf := img.PredictWithConfidence(v, temp); conf >= gate {
				hit = append(hit, v)
			}
		}
		ep.Release()
		t.record("model.score", poolIDs[i], q.id, len(q.rows), start)
		trustedMu.Lock()
		trusted = append(trusted, hit...)
		trustedMu.Unlock()
		return nil
	})
	flt := rp.srv.Fleet()
	if flt != nil {
		if err := rp.each(func(i int, q *request) error {
			start := time.Now()
			_, _, err := flt.ScoreBatch(encoded[i], flt.Temperature())
			t.record("fleet.score", poolIDs[i], q.id, len(q.rows), start)
			return err
		}); err != nil {
			return fmt.Errorf("replay fleet score: %w", err)
		}
	}

	// Recovery and publish are the writer path: one goroutine, as under
	// the server's writer mutex, on a copy carrying the workload's
	// burst damage.
	fork := clean.Fork()
	if rp.w.burst {
		if _, err := fork.AttackBurst(burstSpanFrac, burstFlipProb, rp.sd.burst); err != nil {
			return err
		}
	}
	if !noRecover {
		rec, err := fork.NewRecoverer(cfg.Recovery, cfg.RecoverySeed)
		if err != nil {
			return err
		}
		for _, v := range trusted {
			start := time.Now()
			rec.Observe(v)
			t.record("recovery.observe", 0, 0, 1, start)
		}
	}
	pub := model.NewEpochChain(fork.Model())
	for i := 0; i < publishes; i++ {
		start := time.Now()
		pub.Publish(fork.Model(), []int{i % k})
		t.record("model.publish", 0, 0, 0, start)
	}
	if flt != nil {
		for i := 0; i < sweeps; i++ {
			start := time.Now()
			flt.SweepNow()
			t.record("fleet.sweep", 0, 0, 0, start)
		}
	}
	return nil
}
