package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers are the layers the traced run's CPU profile is attributed to,
// in report order: four of the program's packages and four runtime paths.
var cpuLayers = []string{"core", "ampc", "dht", "codec", "sort", "malloc", "map", "sync"}

// runtimePaths maps each runtime-path layer to the prefixes of the leaf
// frames it claims.  A sample belongs to one of these paths when its
// innermost frame does, whichever package called it.
var runtimePaths = []struct {
	layer    string
	prefixes []string
}{
	{"sort", []string{"sort.", "slices.", "internal/reflectlite.Swapper"}},
	{"malloc", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.nextFreeFast", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
		"runtime.(*mspan)", "runtime.heapBits", "runtime.heapSetType", "runtime.memclrNoHeapPointers",
	}},
	{"map", []string{
		"runtime.map", "runtime.evacuate", "runtime.hashGrow", "runtime.growWork",
		"runtime.memhash", "internal/runtime/maps.",
	}},
	{"sync", []string{
		"sync.", "sync/atomic.", "internal/sync.", "runtime/internal/atomic.", "internal/runtime/atomic.",
		"runtime.semacquire", "runtime.semrelease", "runtime.lock2", "runtime.unlock2", "runtime.procyield",
	}},
}

// modulePrefix is the import path prefix of the program's own packages.
const modulePrefix = "ampcgraph/internal/"

// layerOf attributes one sampled stack, innermost frame first, to a layer:
// a runtime path when the leaf frame is in one, otherwise the package of the
// innermost frame under ampcgraph/internal (every internal/core/<algo>
// package counts as "core").  It returns "" for samples outside both, such
// as the scheduler and the garbage collector's background work.
func layerOf(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	for _, rp := range runtimePaths {
		for _, p := range rp.prefixes {
			if strings.HasPrefix(frames[0], p) {
				return rp.layer
			}
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			return pkg
		}
	}
	return ""
}

// attributeTraces sums the sample values of `go tool pprof -traces` output
// per layer and returns each layer's share of all sampled time.
func attributeTraces(text string) (map[string]float64, error) {
	per := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			per[layerOf(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	inSample := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(frames) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("parsing sample value %q: %w", fields[0], err)
			}
			value = d
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = float64(per[l]) / float64(total)
	}
	return out, nil
}

// summarizeProfile runs the Go distribution's pprof over a CPU profile and
// attributes its samples to layers.
func summarizeProfile(goBin, path string) (map[string]float64, error) {
	out, err := exec.Command(goBin, "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return attributeTraces(string(out))
}
