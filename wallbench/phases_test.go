package main

import (
	"testing"

	"ampcgraph/internal/ampc"
)

// TestCheckPhasesMatchesTheEngine runs every algorithm of every workload
// and checks that its jobs record exactly the phases the configuration is
// expected to run, and that a renamed or missing phase is caught.
func TestCheckPhasesMatchesTheEngine(t *testing.T) {
	for _, wl := range workloads {
		e := smallEnv(t, wl.name)
		pipelined := e.insts[0].cfg.Pipeline
		var recs []jobRecord
		for _, algo := range e.wl.mix {
			recs = append(recs, e.runJob(algo, 0, 0, nil))
		}
		if err := checkPhases(e, pipelined, recs); err != nil {
			t.Errorf("%s: %v", wl.name, err)
			continue
		}
		for i := range recs {
			r := recs[i]
			phases := r.stats.Phases
			renamed := append([]ampc.PhaseStat(nil), phases...)
			renamed[0].Name += "-renamed"
			r.stats.Phases = renamed
			if checkPhases(e, pipelined, []jobRecord{r}) == nil {
				t.Errorf("%s: a %s job with a renamed phase passes", wl.name, r.algo)
			}
			r.stats.Phases = phases[1:]
			if checkPhases(e, pipelined, []jobRecord{r}) == nil {
				t.Errorf("%s: a %s job missing its first phase passes", wl.name, r.algo)
			}
		}
	}
}
