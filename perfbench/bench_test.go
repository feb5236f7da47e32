package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

func TestCheckResponse(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		name string
		body string
		rows int
		ok   bool
	}{
		{"single", `{"prediction":{"class":4,"confidence":1,"trusted":true}}`, 1, true},
		{"batch", `{"predictions":[{"class":0,"confidence":0.3},{"class":2,"confidence":0.9}]}`, 2, true},
		{"too few rows", `{"predictions":[{"class":0,"confidence":0.3}]}`, 2, false},
		{"too many rows", `{"predictions":[{"class":0,"confidence":0.3},{"class":1,"confidence":0.5}]}`, 1, false},
		{"class too high", `{"prediction":{"class":5,"confidence":0.5}}`, 1, false},
		{"negative class", `{"prediction":{"class":-1,"confidence":0.5}}`, 1, false},
		{"zero confidence", `{"prediction":{"class":1,"confidence":0}}`, 1, false},
		{"confidence above one", `{"prediction":{"class":1,"confidence":1.5}}`, 1, false},
		{"missing class", `{"prediction":{"confidence":0.5}}`, 1, false},
		{"both forms", `{"prediction":{"class":1,"confidence":0.5},"predictions":[]}`, 1, false},
		{"not json", `class=1`, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkResponse([]byte(tc.body), tc.rows, k)
			if tc.ok && err != nil {
				t.Fatalf("rejected a valid answer: %v", err)
			}
			if !tc.ok && !errors.Is(err, errMalformed) {
				t.Fatalf("got %v, want errMalformed", err)
			}
		})
	}
}

// TestOpenLoopChargesStall stalls the server for its first 100ms. The
// open loop keeps its schedule, so requests due during the stall go
// out late and are timed from when they were due.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	start := time.Now()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Until(start.Add(stall)))
		_, _ = w.Write([]byte(`{"prediction":{"class":0,"confidence":0.9,"trusted":true}}`))
	}))
	defer ts.Close()
	c := newClient(ts.URL, []int{0, 0}, 2)
	defer c.close()
	src := newSource([][]float64{{1}, {2}}, 1, 1)
	outs := traffic{c: c, src: src, rate: 100}.run(start.Add(300 * time.Millisecond))
	slices.SortFunc(outs, func(a, b outcome) int { return a.due.Compare(b.due) })

	if len(outs) != 30 {
		t.Fatalf("%d requests for 300ms at 100/s, want 30", len(outs))
	}
	for _, o := range outs {
		if o.err != nil || o.malformed != nil {
			t.Fatalf("request failed: %v %v", o.err, o.malformed)
		}
		// Every request due before the stall ended waited for it.
		if wait := start.Add(stall).Sub(o.due); wait > 5*time.Millisecond && o.latency() < wait {
			t.Errorf("request due %v after start: latency %v, but the stall held it %v",
				o.due.Sub(start), o.latency(), wait)
		}
	}
	// Two connections were busy, so the third request went out late.
	if third := outs[2]; third.lag() < stall/2 {
		t.Errorf("third request lag %v, want at least %v", third.lag(), stall/2)
	}
}

func TestOpenLoopCountsUnsentAsFailed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		_, _ = w.Write([]byte(`{"prediction":{"class":0,"confidence":0.9}}`))
	}))
	defer ts.Close()
	c := newClient(ts.URL, []int{0}, 2)
	defer c.close()
	// 100/s over 1s is 100 slots. Two connections at 300ms a request
	// send about 14 of them before lateLimit runs out after the window.
	outs := traffic{c: c, src: newSource([][]float64{{1}}, 1, 1), rate: 100}.run(time.Now().Add(time.Second))
	sent, unsent := 0, 0
	for _, o := range outs {
		switch {
		case errors.Is(o.err, errUnsent):
			unsent++
		case o.err == nil:
			sent++
		}
	}
	if len(outs) != 100 || sent+unsent != 100 || unsent < 70 {
		t.Fatalf("%d outcomes: %d sent, %d unsent; want all 100 slots, most unsent", len(outs), sent, unsent)
	}
}

func TestDiffCounters(t *testing.T) {
	t0 := time.Unix(1000, 0)
	before := counters{started: t0, predictions: 1000, batches: 100, epochsBacklog: 3, bitsSubstituted: 50}

	same := counters{started: t0.Add(3 * time.Millisecond), predictions: 1600, batches: 130, epochsBacklog: 1, bitsSubstituted: 20}
	d := diffCounters(before, same)
	if d.predictions != 600 || d.batches != 30 {
		t.Errorf("same process: got %d predictions, %d batches; want 600, 30", d.predictions, d.batches)
	}
	if d.epochsBacklog != 1 {
		t.Errorf("backlog is a gauge: got %d, want the later reading 1", d.epochsBacklog)
	}
	// A counter that went backwards was reset and counted from zero.
	if d.bitsSubstituted != 20 {
		t.Errorf("reset counter: got %d, want 20", d.bitsSubstituted)
	}

	// A restarted server counts from zero, even past the old totals.
	restarted := counters{started: t0.Add(8 * time.Second), predictions: 1200, batches: 40}
	d = diffCounters(before, restarted)
	if d.predictions != 1200 || d.batches != 40 {
		t.Errorf("after restart: got %d predictions, %d batches; want 1200, 40", d.predictions, d.batches)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (serve (hd) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 250 75 0 0 20 0 9 0 100 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; got != want {
		t.Errorf("got %v, want %v (325 ticks)", got, want)
	}
}

func TestSourceIsSeeded(t *testing.T) {
	xs := make([][]float64, 10)
	for i := range xs {
		xs[i] = []float64{float64(i)}
	}
	take := func(seed uint64) []int {
		s := newSource(xs, 3, seed)
		var rows []int
		for i := 0; i < 10; i++ {
			rows = append(rows, s.next().rows...)
		}
		return rows
	}
	a, b := take(7), take(7)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different requests")
	}
	if slices.Equal(a, take(8)) {
		t.Fatal("different seeds gave the same requests")
	}
	// Each pass covers the whole split once.
	pass := slices.Clone(a[:10])
	slices.Sort(pass)
	for i, r := range pass {
		if r != i {
			t.Fatalf("first pass %v is not a permutation", a[:10])
		}
	}
}
