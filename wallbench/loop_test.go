package main

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"ampcgraph/internal/ampc"
)

func TestRunLoopRunsWholePasses(t *testing.T) {
	mix := []string{"a", "b", "c"}
	var calls, running, passes atomic.Int64
	recs, elapsed := runLoop(2, mix, 30*time.Millisecond, 0, func(algo string, client, pass int) jobRecord {
		calls.Add(1)
		// Lock-step: the other client's job of this step is running or
		// has not started, never already past this step.
		if n := running.Add(1); n > 2 {
			t.Errorf("%d jobs running at once, want at most 2", n)
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return jobRecord{algo: algo, client: client, pass: pass, correct: true}
	}, func() { passes.Add(1) })
	if int64(len(recs)) != calls.Load() {
		t.Fatalf("%d records for %d jobs", len(recs), calls.Load())
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("loop ended after %v, before its duration", elapsed)
	}
	perClient := map[int]map[int][]string{}
	for _, r := range recs {
		if perClient[r.client] == nil {
			perClient[r.client] = map[int][]string{}
		}
		perClient[r.client][r.pass] = append(perClient[r.client][r.pass], r.algo)
	}
	if len(perClient) != 2 {
		t.Fatalf("%d clients ran, want 2", len(perClient))
	}
	for c, ps := range perClient {
		if int64(len(ps)) != passes.Load() {
			t.Errorf("client %d ran %d passes, afterPass saw %d", c, len(ps), passes.Load())
		}
		for p := 0; p < len(ps); p++ {
			if got := ps[p]; len(got) != len(mix) || got[0] != mix[0] || got[1] != mix[1] || got[2] != mix[2] {
				t.Fatalf("client %d pass %d ran %v, not the whole mix %v", c, p, got, mix)
			}
		}
	}
	// Records come step by step: both clients' job i before either's i+1.
	for k := 0; k+1 < len(recs); k += 2 {
		if recs[k].algo != recs[k+1].algo || recs[k].pass != recs[k+1].pass || recs[k].client == recs[k+1].client {
			t.Fatalf("records %d and %d are not one lock-step: %+v, %+v", k, k+1, recs[k], recs[k+1])
		}
	}
}

func TestRunLoopRunsMinPasses(t *testing.T) {
	passes := 0
	recs, _ := runLoop(1, []string{"a"}, 0, 3, func(algo string, client, pass int) jobRecord {
		return jobRecord{algo: algo, client: client, pass: pass, correct: true}
	}, func() { passes++ })
	if passes != 3 || len(recs) != 3 {
		t.Errorf("ran %d passes and %d jobs with a zero duration, want 3 of each", passes, len(recs))
	}
}

func TestEndToEndAccounting(t *testing.T) {
	e := &env{wl: workload{mix: passMix, clients: 1}, setupTimes: []time.Duration{3 * time.Second, time.Second, 2 * time.Second}}
	var recs []jobRecord
	for pass := 0; pass < 20; pass++ {
		for i, algo := range passMix {
			recs = append(recs, jobRecord{
				algo:    algo,
				pass:    pass,
				latency: time.Duration(i+1) * time.Millisecond,
				stats:   ampc.Stats{Sim: time.Duration(10*(i+1)) * time.Millisecond, Rounds: i + 1},
				correct: true,
			})
		}
	}
	// One job of the last pass failed: it counts as attempted, not as done.
	recs[len(recs)-1].correct = false
	recs[len(recs)-1].err = errors.New("injected")
	m := newMetricSet()
	endToEnd(m, e, recs, 10*time.Second, 100<<20, 42)
	want := map[string]float64{
		"mis_ms":           1,
		"mm_ms":            2,
		"msf_ms":           3,
		"cc_ms":            4,
		"cycle_ms":         5,
		"jobs_per_s":       99.0 / 10,
		"alloc_mb_per_job": 1,
		"peak_rss_mb":      42,
		"setup_s":          2,
		"ok_frac":          99.0 / 100,
		// The failed job has no statistics; the means cover the 99 others.
		"sim_ms_per_job": (20*150 - 50) / 99.0,
		"rounds_per_job": (20*15 - 5) / 99.0,
	}
	for name, w := range want {
		if got, ok := m.vals[name]; !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v (set %v), want %v", name, got, ok, w)
		}
	}
	// 99 latencies, the top 19 of 5 ms: p89 is the highest percentile with
	// 10 beyond it.
	if got := m.vals["latency_tail_ms"]; got != 5 {
		t.Errorf("latency_tail_ms = %v, want 5", got)
	}
	for _, d := range endToEndDefs {
		if _, ok := m.vals[d.name]; !ok {
			t.Errorf("end-to-end metric %s not set", d.name)
		}
	}
}
