package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json declares
// exactly the workloads and metrics the program reports, with the same
// units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit or bound", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}

	defs := perLayerDefs()
	if len(bf.PerLayer) != len(defs) || len(defs) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d (at most 128)", len(bf.PerLayer), len(defs))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		d := defs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %s: bad unit", m.Name)
		}
	}
}
