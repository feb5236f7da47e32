package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one /predict call: test-split row indices and the JSON
// body that carries them.
type request struct {
	id   int64
	rows []int
	body []byte
}

// source hands out requests over the test split in a seed-chosen
// order: each pass over the split is a fresh permutation, and requests
// take consecutive rows of that stream, so both the order and the
// grouping of rows into requests follow from the seed alone.
type source struct {
	mu      sync.Mutex
	rng     *rand.Rand
	perm    []int
	pos     int
	nextID  int64
	perReq  int
	rowJSON [][]byte
}

func newSource(xs [][]float64, perReq int, seed uint64) *source {
	s := &source{
		rng:     rand.New(rand.NewPCG(seed, 0x726f7773)),
		perReq:  perReq,
		rowJSON: make([][]byte, len(xs)),
	}
	for i, x := range xs {
		s.rowJSON[i] = appendRow(nil, x)
	}
	s.perm = s.rng.Perm(len(xs))
	return s
}

// appendRow writes x as a JSON array with every float in its shortest
// exact form, so the server decodes the test row bit for bit.
func appendRow(b []byte, x []float64) []byte {
	b = append(b, '[')
	for i, v := range x {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

func (s *source) next() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &request{id: s.nextID, rows: make([]int, s.perReq)}
	s.nextID++
	for i := range r.rows {
		if s.pos == len(s.perm) {
			s.perm = s.rng.Perm(len(s.perm))
			s.pos = 0
		}
		r.rows[i] = s.perm[s.pos]
		s.pos++
	}
	var b []byte
	if s.perReq == 1 {
		b = append(append([]byte(`{"x":`), s.rowJSON[r.rows[0]]...), '}')
	} else {
		b = []byte(`{"xs":[`)
		for i, row := range r.rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, s.rowJSON[row]...)
		}
		b = append(b, "]}"...)
	}
	r.body = b
	return r
}

// errMalformed marks a 200 response that breaks the /predict contract;
// any one of them makes the run incorrect.
var errMalformed = errors.New("malformed /predict response")

type wirePrediction struct {
	Class      *int     `json:"class"`
	Confidence *float64 `json:"confidence"`
}

type wireResponse struct {
	Prediction  *wirePrediction  `json:"prediction"`
	Predictions []wirePrediction `json:"predictions"`
}

// checkResponse validates a /predict answer for a request of n rows
// against a model of k classes and returns the served classes. It
// requires exactly n predictions, each with a class in [0,k) and a
// confidence in (0,1].
func checkResponse(body []byte, n, k int) ([]int, error) {
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("%w: %v", errMalformed, err)
	}
	preds := resp.Predictions
	if resp.Prediction != nil {
		if preds != nil {
			return nil, fmt.Errorf("%w: both prediction and predictions", errMalformed)
		}
		preds = []wirePrediction{*resp.Prediction}
	}
	if len(preds) != n {
		return nil, fmt.Errorf("%w: %d predictions for %d rows", errMalformed, len(preds), n)
	}
	classes := make([]int, n)
	for i, p := range preds {
		switch {
		case p.Class == nil || p.Confidence == nil:
			return nil, fmt.Errorf("%w: prediction %d lacks class or confidence", errMalformed, i)
		case *p.Class < 0 || *p.Class >= k:
			return nil, fmt.Errorf("%w: class %d outside [0,%d)", errMalformed, *p.Class, k)
		case !(*p.Confidence > 0 && *p.Confidence <= 1):
			return nil, fmt.Errorf("%w: confidence %v outside (0,1]", errMalformed, *p.Confidence)
		}
		classes[i] = *p.Class
	}
	return classes, nil
}

// outcome is one finished request. due is when the request was meant
// to go out: the send time in a closed loop, the schedule slot in an
// open loop.
type outcome struct {
	req       *request
	due, sent time.Time
	done      time.Time
	hits      int   // rows whose served class equals the test label
	err       error // transport failure or non-200 status
	malformed error
}

func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }
func (o outcome) lag() time.Duration     { return o.sent.Sub(o.due) }

// client sends /predict requests and checks every answer against the
// test labels.
type client struct {
	base    string
	http    *http.Client
	labels  []int
	classes int
}

func newClient(base string, labels []int, classes int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns + 2,
		DisableCompression:  true,
	}
	return &client{
		base:    base,
		http:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		labels:  labels,
		classes: classes,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// Every /predict carries its request id and row count, so a traced
// server's handler span can name the request it timed.
const (
	requestIDHeader = "X-Request-Id"
	rowsHeader      = "X-Rows"
)

// predict sends r, due at due, and returns its checked outcome.
func (c *client) predict(r *request, due time.Time) outcome {
	o := outcome{req: r, due: due, sent: time.Now()}
	hr, err := http.NewRequest(http.MethodPost, c.base+"/predict", bytes.NewReader(r.body))
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(requestIDHeader, strconv.FormatInt(r.id, 10))
	hr.Header.Set(rowsHeader, strconv.Itoa(len(r.rows)))
	resp, err := c.http.Do(hr)
	if err != nil {
		o.err = err
		o.done = time.Now()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		classes, cerr := checkResponse(body, len(r.rows), c.classes)
		if cerr != nil {
			o.malformed = cerr
			break
		}
		for i, row := range r.rows {
			if classes[i] == c.labels[row] {
				o.hits++
			}
		}
	}
	return o
}

// post sends a control request (not traffic) and decodes its JSON
// answer into v when v is non-nil.
func (c *client) post(path string, body []byte, v any) error {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeResponse(resp, path, v)
}

func (c *client) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, path, v)
}

func decodeResponse(resp *http.Response, path string, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// traffic drives one phase of load: closed loop when rate is zero,
// otherwise open loop at rate requests per second.
type traffic struct {
	c    *client
	src  *source
	rate float64
}

// lateLimit is how far past the window an open-loop request that fell
// due inside it may still go out. One that would go later is not sent:
// the server fell that far behind the schedule, so it counts as
// failed.
const lateLimit = time.Second

var errUnsent = errors.New("due in the window but not sent within lateLimit")

// run sends traffic until end over conns connections and returns every
// request of the phase. A closed loop sends until end; an open loop
// sends every request that falls due before end. A malformed answer
// stops the phase early.
func (t traffic) run(end time.Time) []outcome {
	var (
		mu   sync.Mutex
		outs []outcome
		bad  atomic.Bool
		wg   sync.WaitGroup
		slot atomic.Int64
	)
	start := time.Now()
	var interval time.Duration
	if t.rate > 0 {
		interval = time.Duration(float64(time.Second) / t.rate)
	}
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []outcome
			for !bad.Load() {
				due := time.Now()
				if interval > 0 {
					due = start.Add(time.Duration(slot.Add(1)-1) * interval)
					if !due.Before(end) {
						break
					}
					if time.Now().After(end.Add(lateLimit)) {
						local = append(local, outcome{req: t.src.next(), due: due, sent: due, done: due, err: errUnsent})
						continue
					}
					time.Sleep(time.Until(due))
				} else if !due.Before(end) {
					break
				}
				o := t.c.predict(t.src.next(), due)
				if o.malformed != nil {
					bad.Store(true)
				}
				local = append(local, o)
			}
			mu.Lock()
			outs = append(outs, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs
}
