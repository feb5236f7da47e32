package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/dataset"
)

const (
	// warmup is unrecorded traffic before every window: connections
	// open, pools fill and the server's lazy caches settle.
	warmup = time.Second
	// setupRuns is how many times a run starts servehd to time set-up;
	// the last start serves the window.
	setupRuns = 15
	// postBurstRows is the fixed number of predictions, completing
	// after the burst returned, that post_burst_accuracy covers: ten
	// passes over the 400-row PAMAP test split.
	postBurstRows = 4000
	// drills is how many bursts post_burst_accuracy averages over on a
	// burst workload: the window's own and drills-1 more, each on a
	// fresh servehd that takes exactly one. Where a burst lands decides
	// how many classes it breaks, so one burst per run would make the
	// figure swing with the seed.
	drills = 16
	// drillWarmup and drillWindow time one extra drill; the window
	// holds postBurstRows predictions with room to spare.
	drillWarmup = 250 * time.Millisecond
	drillWindow = 600 * time.Millisecond
)

// options are the command-line settings of one run.
type options struct {
	seed      uint64
	window    time.Duration
	servehd   string
	spans     string
	noRecover bool
}

// slice is the unit the window is cut into. Throughput and server CPU
// are computed per slice and reported as the median over the quiet
// slices: the half of the slices in which the hypervisor stole the
// least CPU time from this machine. Latency quantiles are taken over
// the requests that fell due in the quiet slices. Load from other
// guests on the host then moves a run's figure less, while a change in
// the program shows in every slice alike.
const slice = time.Second

// phase is what one warmup-plus-window of traffic measured.
type phase struct {
	warm, outs []outcome
	start, end time.Time
	// burstDone is when the /attack call returned (the window start
	// when the workload sends no burst).
	burstDone     time.Time
	before, after counters
	kernel        string
	clientCPU     time.Duration
	// samples are taken at every slice boundary, the window's ends
	// included.
	samples []sample
	// peakRSS is servehd's VmHWM; zero for a server running inside
	// this process.
	peakRSS int64
}

// sample is the server's CPU time and prediction count at one
// instant, with the machine's CPU tick counters; cpu is zero for an
// in-process server.
type sample struct {
	cpu         time.Duration
	predictions int64
	host        hostTicks
}

func takeSample(c *client, p *servehd) (sample, counters, string, error) {
	s := sample{host: readHostTicks()}
	var err error
	if p != nil {
		if s.cpu, err = p.cpuTime(); err != nil {
			return s, counters{}, "", err
		}
	}
	k, kernel, err := readCounters(c)
	s.predictions = k.predictions
	return s, k, kernel, err
}

// measure runs warmup traffic and then a window of length d, with the
// workload's burst at window start, and samples the server at every
// slice boundary. p is nil for an in-process server. onSlice, when
// set, runs as slice i begins.
func measure(w workload, c *client, src *source, d time.Duration, sd seeds, p *servehd, onSlice func(i int)) (phase, error) {
	t := traffic{c: c, src: src, rate: w.rate}
	var ph phase
	ph.warm = t.run(time.Now().Add(warmup))
	if bad := firstMalformed(ph.warm); bad != nil {
		return ph, bad
	}
	s0, k0, kernel, err := takeSample(c, p)
	if err != nil {
		return ph, err
	}
	ph.before, ph.kernel, ph.samples = k0, kernel, []sample{s0}
	self0 := selfCPU()
	if onSlice != nil {
		onSlice(0)
	}
	ph.start = time.Now()
	ph.end = ph.start.Add(d)
	// The sampler scrapes at each inner slice boundary while traffic
	// runs; the final sample is taken after the window.
	sampled := make(chan error, 1)
	go func() {
		var inner []sample
		for i := 1; i < ph.nslices(); i++ {
			time.Sleep(time.Until(ph.start.Add(time.Duration(i) * slice)))
			if onSlice != nil {
				onSlice(i)
			}
			s, _, _, err := takeSample(c, p)
			if err != nil {
				sampled <- err
				return
			}
			inner = append(inner, s)
		}
		ph.samples = append(ph.samples, inner...)
		sampled <- nil
	}()
	werr := ph.runWindow(w, t, sd.burst)
	if err := <-sampled; err != nil {
		return ph, err
	}
	if werr != nil {
		return ph, werr
	}
	ph.clientCPU = selfCPU() - self0
	s1, k1, _, err := takeSample(c, p)
	if err != nil {
		return ph, err
	}
	ph.after, ph.samples = k1, append(ph.samples, s1)
	if p != nil {
		if ph.peakRSS, err = p.peakRSS(); err != nil {
			return ph, err
		}
	}
	return ph, firstMalformed(ph.outs)
}

// runWindow sends the workload's traffic from ph.start to ph.end, with
// its burst, if any, at ph.start.
func (ph *phase) runWindow(w workload, t traffic, burstSeed uint64) error {
	ph.burstDone = ph.start
	burstErr := make(chan error, 1)
	if w.burst {
		go func() {
			err := t.c.post("/attack", w.attackBody(burstSeed), nil)
			ph.burstDone = time.Now()
			burstErr <- err
		}()
	} else {
		burstErr <- nil
	}
	ph.outs = t.run(ph.end)
	if err := <-burstErr; err != nil {
		return fmt.Errorf("burst: %w", err)
	}
	return nil
}

// drill starts a fresh servehd, warms it up, bursts it once and
// returns the phase whose postBurst predictions it measured.
func drill(w workload, ds *dataset.Dataset, o options, sd seeds) (phase, error) {
	var ph phase
	p, _, err := startServehd(o.servehd, w.servehdArgs(sd.server, o.noRecover))
	if err != nil {
		return ph, err
	}
	defer p.stop()
	c := newClient(p.base, ds.TestY, ds.Spec.Classes)
	defer c.close()
	t := traffic{c: c, src: newSource(ds.TestX, w.rows, sd.rows), rate: w.rate}
	if ph.warm = t.run(time.Now().Add(drillWarmup)); firstMalformed(ph.warm) != nil {
		return ph, firstMalformed(ph.warm)
	}
	ph.start = time.Now()
	ph.end = ph.start.Add(drillWindow)
	if err := ph.runWindow(w, t, sd.burst); err != nil {
		return ph, err
	}
	return ph, firstMalformed(ph.outs)
}

func firstMalformed(outs []outcome) error {
	for _, o := range outs {
		if o.malformed != nil {
			return o.malformed
		}
	}
	return nil
}

// tally counts requests over all of a phase's traffic, warmup
// included: every one of them was checked.
func (ph phase) tally() (attempted, failed int64) {
	for _, outs := range [][]outcome{ph.warm, ph.outs} {
		for _, o := range outs {
			attempted++
			if o.err != nil || o.malformed != nil {
				failed++
			}
		}
	}
	return attempted, failed
}

// nslices is the number of slices in the window; the last one takes
// any remainder shorter than a slice.
func (ph phase) nslices() int { return max(int(ph.end.Sub(ph.start)/slice), 1) }

// slices groups the window's requests by the slice in which they fell
// due, or, with done set, in which they completed; requests
// completed after the window belong to no slice then.
func (ph phase) slices(done bool) [][]outcome {
	n := ph.nslices()
	out := make([][]outcome, n)
	for _, o := range ph.outs {
		at := o.due
		if done {
			at = o.done
		}
		if at.Before(ph.start) || !at.Before(ph.end) {
			continue
		}
		i := min(int(at.Sub(ph.start)/slice), n-1)
		out[i] = append(out[i], o)
	}
	return out
}

// quiet returns the indices of the quiet half of the window's slices.
func (ph phase) quiet() []int {
	n := len(ph.samples) - 1
	steal := make([]float64, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
		steal[i] = stealShare(ph.samples[i].host, ph.samples[i+1].host)
	}
	sort.SliceStable(idx, func(x, y int) bool { return steal[idx[x]] < steal[idx[y]] })
	return idx[:(n+1)/2]
}

// quietMedian is the median of per-slice values over the quiet slices.
func (ph phase) quietMedian(per []float64) float64 {
	var v []float64
	for _, i := range ph.quiet() {
		if i < len(per) && !math.IsNaN(per[i]) {
			v = append(v, per[i])
		}
	}
	return median(v)
}

// throughput is predictions completed per second in the quiet slices.
func (ph phase) throughput() float64 { return ph.quietMedian(ph.slicePPS()) }

// slicePPS is each slice's predictions completed per second.
func (ph phase) slicePPS() []float64 {
	sl := ph.slices(true)
	per := make([]float64, len(sl))
	for i, outs := range sl {
		rows := 0
		for _, o := range outs {
			if o.err == nil {
				rows += len(o.req.rows)
			}
		}
		width := slice
		if i == len(sl)-1 {
			width = ph.end.Sub(ph.start) - time.Duration(i)*slice
		}
		per[i] = float64(rows) / width.Seconds()
	}
	return per
}

// stealShare is the share of the machine's CPU time the hypervisor
// took from it between two readings.
func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// latency is the q-quantile request latency of each quiet slice,
// taken over the requests that fell due in it, and its median over
// those slices; fewest is the smallest number of requests in one.
func (ph phase) latency(q float64) (at time.Duration, fewest int) {
	sl := ph.slices(false)
	per := make([]float64, len(sl))
	fewest = math.MaxInt
	for _, i := range ph.quiet() {
		per[i] = math.NaN()
		if len(sl[i]) > 0 {
			per[i] = float64(quantile(latencies(sl[i]), q))
		}
		fewest = min(fewest, len(sl[i]))
	}
	return time.Duration(ph.quietMedian(per)), fewest
}

// serverCPUPerPred is servehd's CPU time per prediction it served,
// over the quiet slices.
func (ph phase) serverCPUPerPred() time.Duration {
	per := make([]float64, len(ph.samples)-1)
	for i := range per {
		a, b := ph.samples[i], ph.samples[i+1]
		per[i] = math.NaN()
		if n := b.predictions - a.predictions; n > 0 {
			per[i] = float64(b.cpu-a.cpu) / float64(n)
		}
	}
	return time.Duration(ph.quietMedian(per))
}

// latencies returns the requests' latencies, sorted.
func latencies(outs []outcome) []time.Duration {
	l := make([]time.Duration, len(outs))
	for i, o := range outs {
		l[i] = o.latency()
		if o.err != nil {
			l[i] = time.Duration(math.MaxInt64)
		}
	}
	slices.Sort(l)
	return l
}

// accuracy is the share of served classes equal to the test label.
func accuracy(outs []outcome) float64 {
	rows, hits := 0, 0
	for _, o := range outs {
		if o.err == nil {
			rows += len(o.req.rows)
			hits += o.hits
		}
	}
	if rows == 0 {
		return 0
	}
	return float64(hits) / float64(rows)
}

// postBurst returns the first requests, in completion order, that
// finished after the burst returned and together carry postBurstRows
// predictions, and whether the window held that many.
func (ph phase) postBurst() ([]outcome, bool) {
	var after []outcome
	for _, o := range ph.outs {
		if o.err == nil && o.done.After(ph.burstDone) {
			after = append(after, o)
		}
	}
	sort.Slice(after, func(i, j int) bool { return after[i].done.Before(after[j].done) })
	rows := 0
	for i, o := range after {
		rows += len(o.req.rows)
		if rows >= postBurstRows {
			return after[:i+1], true
		}
	}
	return after, false
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// result is the benchmark's one-line JSON verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's output: the verdict plus the lines printed above
// it for a reader.
type report struct {
	result
	notes []string
	names []string // metric names in print order
}

func (r *report) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.names = append(r.names, name)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// againstServehd starts servehd runs times, timing each set-up, and
// measures a window of length d against the last one.
func againstServehd(w workload, ds *dataset.Dataset, o options, sd seeds, runs int, d time.Duration) (phase, []float64, error) {
	// One core's worth of client leaves servehd the rest of the box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p *servehd
	var setups []float64
	for i := 0; i < runs; i++ {
		if p != nil {
			p.stop()
		}
		q, took, err := startServehd(o.servehd, w.servehdArgs(sd.server, o.noRecover))
		if err != nil {
			return phase{}, nil, err
		}
		p = q
		setups = append(setups, took.Seconds())
	}
	defer p.stop()
	c := newClient(p.base, ds.TestY, ds.Spec.Classes)
	defer c.close()
	ph, err := measure(w, c, newSource(ds.TestX, w.rows, sd.rows), d, sd, p, nil)
	return ph, setups, err
}

// runE2E measures the end-to-end metrics against servehd.
func runE2E(w workload, ds *dataset.Dataset, o options) (report, error) {
	var r report
	sd := deriveSeeds(o.seed)
	ph, setups, err := againstServehd(w, ds, o, sd, setupRuns, o.window)
	r.Attempted, r.Failed = ph.tally()
	if err != nil {
		return r, err
	}
	post := []phase{ph}
	for k := uint64(1); w.burst && k < drills; k++ {
		dsd := seeds{server: sd.server, rows: mix(sd.rows, k), burst: mix(sd.burst, k)}
		d, err := drill(w, ds, o, dsd)
		at, af := d.tally()
		r.Attempted += at
		r.Failed += af
		if err != nil {
			return r, err
		}
		post = append(post, d)
	}
	// Each server's accuracy counts once, so one burst's placement does
	// not outweigh the others.
	var servedAcc, postAcc []float64
	for _, d := range post {
		servedAcc = append(servedAcc, accuracy(append(slices.Clone(d.warm), d.outs...)))
		outs, full := d.postBurst()
		if !full {
			r.note("warning: only %d requests completed after a burst; post_burst_accuracy covers fewer than %d predictions there", len(outs), postBurstRows)
		}
		postAcc = append(postAcc, accuracy(outs))
	}
	r.Correct = true
	p50, _ := ph.latency(0.50)
	p90, _ := ph.latency(0.90)
	p99, fewest := ph.latency(0.99)
	served := ph.after.predictions - ph.before.predictions
	okReqs := int64(0)
	for _, o := range ph.outs {
		if o.err == nil {
			okReqs++
		}
	}
	r.note("env kernel=%s nproc=%d go=%s", ph.kernel, runtime.NumCPU(), runtime.Version())
	r.note("workload %s seed %d: %d window requests, %d served predictions, %d quiet slices of at least %d requests, host steal %.3f",
		w.name, o.seed, len(ph.outs), served, len(ph.quiet()), fewest, stealShare(ph.samples[0].host, ph.samples[len(ph.samples)-1].host))
	// p99 is printed but not reported: on a two-core guest it follows the
	// host's scheduling hiccups more than the program (its spread over
	// seeds reached 0.3 to 0.9 of its median).
	r.note("latency_p99_ms %.3f (unbounded; median over the quiet slices)", ms(p99))

	r.add("throughput_pps", ph.throughput(), "pred/s")
	r.add("latency_p50_ms", ms(p50), "ms")
	r.add("latency_p90_ms", ms(p90), "ms")
	r.add("server_cpu_us_per_pred", float64(ph.serverCPUPerPred())/float64(time.Microsecond), "us/pred")
	r.add("server_peak_rss_mb", float64(ph.peakRSS)/(1<<20), "MB")
	r.add("served_accuracy", mean(servedAcc), "ratio")
	r.add("post_burst_accuracy", mean(postAcc), "ratio")
	r.add("ok_share", float64(okReqs)/float64(max(len(ph.outs), 1)), "ratio")
	r.add("setup_s", median(setups), "s")
	return r, nil
}
