package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// rssPasses is how many passes peak_rss_mb is taken over: the first
// rssPasses of every run, and the loop runs at least that many.  A fixed
// count keeps the figure independent of speed: the serving sessions keep
// every job's stores until they close, so a pass's peak grows with the
// jobs run before it, and a faster engine would otherwise read as a larger
// footprint.
const rssPasses = 8

// rssPeaks records the process's peak resident set size in each of the
// first rssPasses passes.  After each sample it resets the kernel's
// high-water mark (VmHWM) to the current RSS, so every sample is the peak
// of one pass, and a run reports the median pass rather than a single
// maximum that one garbage-collection cycle decides.
type rssPeaks struct {
	mb  []float64
	err error // the first failure to read or reset the mark
}

// start resets the high-water mark, so the first sample is the first
// pass's own peak and not the set-up's.
func (r *rssPeaks) start() { r.err = resetHighWater() }

// sample records the peak of the pass that just ended, until rssPasses
// passes are recorded.
func (r *rssPeaks) sample() {
	if r.err != nil || len(r.mb) == rssPasses {
		return
	}
	v, err := highWaterMB()
	if err == nil {
		r.mb = append(r.mb, v)
		err = resetHighWater()
	}
	r.err = err
}

// resetHighWater resets VmHWM to the current RSS by writing 5 to
// /proc/self/clear_refs (Linux 4.0+).
func resetHighWater() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// highWaterMB returns the process's peak RSS in MB since the last reset,
// read from VmHWM in /proc/self/status.
func highWaterMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, nil
				}
			}
			return 0, fmt.Errorf("unparsable VmHWM line %q in /proc/self/status", sc.Text())
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
