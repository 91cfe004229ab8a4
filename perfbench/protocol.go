package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one timed unit: a pmake or frontend run, or one campaign
// trial, bracketed by the reference kernel and by forced collections.
type sample struct {
	hostS   float64 // unit host seconds
	refS    float64 // mean of the reference kernel just before and after
	allocs  uint64  // heap allocations during the unit
	bytes   uint64  // heap bytes allocated during the unit
	gcs     uint32  // GC cycles that ended during the unit
	gcCPU   float64 // GC CPU seconds during the unit
	liveMB  float64 // live heap left behind, after a forced GC
	leftGos int     // goroutines left behind

	group    int  // campaign: the scenario's index in the slice
	profiled bool // ran under the CPU profiler
}

func (s sample) rel() float64 { return s.hostS / s.refS }

// heapState is the process state the protocol snapshots around a unit.
type heapState struct {
	mem   runtime.MemStats
	gcCPU float64
}

func readHeap() heapState {
	var h heapState
	runtime.ReadMemStats(&h.mem)
	gcCPU := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gcCPU)
	if gcCPU[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = gcCPU[0].Value.Float64()
	}
	return h
}

// measure runs one unit under the leak-aware protocol: collect and
// snapshot, reference kernel, the unit itself with allocation counters
// read on either side, reference kernel, collect and snapshot again. The
// second snapshot shows what the unit left reachable: with no hive
// teardown, every boot leaves its parked task goroutines and the heap
// they reach behind, and that leak is reported, not hidden. With prof the
// unit runs under the CPU profiler, started and stopped outside its
// timing.
func measure(tr *tracer, prof bool, unit func()) (sample, error) {
	ref := func() float64 {
		var s float64
		tr.do("ref", func() { s = refKernel() })
		return s
	}
	runtime.GC()
	before := readHeap()
	gos0 := runtime.NumGoroutine()
	refA := ref()

	if prof {
		if err := tr.startProfile(); err != nil {
			return sample{}, err
		}
	}
	m0 := readHeap()
	t0 := time.Now()
	unit()
	host := time.Since(t0).Seconds()
	m1 := readHeap()
	if prof {
		tr.stopProfile()
	}

	refB := ref()
	runtime.GC()
	after := readHeap()
	return sample{
		hostS:    host,
		refS:     (refA + refB) / 2,
		allocs:   m1.mem.Mallocs - m0.mem.Mallocs,
		bytes:    m1.mem.TotalAlloc - m0.mem.TotalAlloc,
		gcs:      m1.mem.NumGC - m0.mem.NumGC,
		gcCPU:    m1.gcCPU - m0.gcCPU,
		liveMB:   (float64(after.mem.HeapAlloc) - float64(before.mem.HeapAlloc)) / mb,
		leftGos:  runtime.NumGoroutine() - gos0,
		profiled: prof,
	}, nil
}

const mb = 1 << 20

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
