package main

import (
	"testing"

	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/core/cycle"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/msf"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

func TestSameWeight(t *testing.T) {
	if !sameWeight(1e6, 1e6+1e-5) || sameWeight(10, 10.001) {
		t.Error("sameWeight")
	}
}

// smallEnv is the named workload's environment over two small instances:
// one with a single cycle, one with two.
func smallEnv(t *testing.T, name string) *env {
	t.Helper()
	wl, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	e := &env{wl: wl}
	t.Cleanup(e.close)
	for i := 0; i < 2; i++ {
		seed := int64(5 + i)
		g := gen.PreferentialAttachment(300, 3, seed)
		in := &instance{cfg: wl.config(seed), g: g, wg: gen.DegreeProportionalWeights(g), single: i == 0}
		in.cyc = gen.OneOrTwoCycles(200, in.single, seed)
		if wl.serving {
			var err error
			if in.sess, in.misSh, in.mmSh, err = openServing(in.cfg, g); err != nil {
				t.Fatal(err)
			}
		}
		in.ora = newOracle(in.g, in.wg, in.cfg.Seed)
		e.insts = append(e.insts, in)
	}
	return e
}

func TestEveryAlgorithmMatchesItsOracle(t *testing.T) {
	for _, wl := range workloads {
		e := smallEnv(t, wl.name)
		for _, algo := range e.wl.mix {
			for pass := 0; pass < 2; pass++ {
				rec := e.runJob(algo, 0, pass, nil)
				if rec.err != nil || !rec.correct {
					t.Errorf("%s %s pass %d: err %v, correct %v", wl.name, algo, pass, rec.err, rec.correct)
				}
			}
		}
	}
}

func TestCheckRejectsWrongOutputs(t *testing.T) {
	e := smallEnv(t, "oneshot-social")
	in := e.insts[1] // the two-cycle instance
	misRes, err := mis.Run(in.g, in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	misRes.InMIS[0] = !misRes.InMIS[0]
	mmRes, err := matching.Run(in.g, in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, u := range mmRes.Matching.Mate {
		if u != graph.None {
			mmRes.Matching.Mate[v], mmRes.Matching.Mate[u] = graph.None, graph.None
			break
		}
	}
	msfRes, err := msf.Run(in.wg, in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	msfRes.TotalWeight++
	ccRes, err := connectivity.Run(in.g, in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccRes.Components[0] = graph.NodeID(len(ccRes.Components)) // split vertex 0 off
	cycRes, err := cycle.Run(e.insts[0].cyc, in.cfg)          // a single cycle
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		algo string
		out  any
	}{
		{algoMIS, misRes},
		{algoMM, mmRes},
		{algoMSF, msfRes},
		{algoCC, ccRes},
		{algoCycle, cycRes},
		{algoMM, misRes}, // a result of the wrong algorithm
	} {
		if in.check(c.algo, c.out) {
			t.Errorf("check accepted a wrong %s output (%T)", c.algo, c.out)
		}
	}
}
