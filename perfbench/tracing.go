package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// iteration or trial share Trace; Parent is 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory and the CPU profiles of traced units. A nil
// *tracer records nothing, which is how untraced runs use it.
type tracer struct {
	epoch    time.Time
	spans    []span
	trace    int
	root     int
	profiles [][]byte
	buf      bytes.Buffer
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a root span for one iteration or trial; later spans until
// the next begin are its children and share its trace id.
func (tr *tracer) begin(name string) {
	if tr == nil {
		return
	}
	tr.trace++
	tr.root = 0
	tr.root = tr.open(name)
}

func (tr *tracer) open(name string) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: tr.root, Trace: tr.trace, Name: name,
		Start: time.Since(tr.epoch).Seconds()})
	return id
}

func (tr *tracer) close(id int) {
	tr.spans[id-1].End = time.Since(tr.epoch).Seconds()
}

// end closes the current root span.
func (tr *tracer) end() {
	if tr == nil {
		return
	}
	tr.close(tr.root)
	tr.root = 0
}

// do runs fn inside a child span of the current root.
func (tr *tracer) do(name string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	id := tr.open(name)
	fn()
	tr.close(id)
}

// durations lists the durations of every span with the given name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (tr *tracer) startProfile() error {
	tr.buf.Reset()
	if err := pprof.StartCPUProfile(&tr.buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	return nil
}

// stopProfile stops the CPU profiler and keeps the profile.
func (tr *tracer) stopProfile() {
	pprof.StopCPUProfile()
	tr.profiles = append(tr.profiles, append([]byte(nil), tr.buf.Bytes()...))
}

// cpuModules are the layers CPU samples are charged to: every
// repro/internal module the workloads run, runtime for samples with no
// internal frame, and other for internal modules not listed.
var cpuModules = []string{
	"sim", "kmem", "stats", "trace", "machine", "rpc", "careful", "sched",
	"vm", "membership", "fs", "cow", "proc", "core", "wax", "workload",
	"faultinject", "forensic", "runtime", "other",
}

// cpuShares charges every sample of the given pprof profiles to the
// innermost repro/internal/<module> frame on its stack (runtime if there
// is none) and returns each module's share of the CPU time. Only units are
// profiled, never the reference kernel.
func cpuShares(profiles [][]byte) (map[string]float64, error) {
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	ns := map[string]int64{}
	var total int64
	for _, raw := range profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			mod := p.module(s.locs)
			if !known[mod] {
				mod = "other"
			}
			ns[mod] += s.value
			total += s.value
		}
	}
	if total == 0 {
		return nil, errors.New("profile: no CPU samples in the profiled units")
	}
	out := map[string]float64{}
	for _, m := range cpuModules {
		out[m] = float64(ns[m]) / float64(total)
	}
	return out, nil
}

// The decoder below reads the few fields of profile.proto (gzipped
// protobuf, as runtime/pprof writes it) that attribution needs.

type pbSample struct {
	locs  []uint64
	value int64
}

type pbProfile struct {
	samples []pbSample
	locFns  map[uint64][]uint64 // location id -> function ids, innermost first
	fnName  map[uint64]int64    // function id -> string table index
	strs    []string
}

// module returns the module a stack (leaf first) is charged to.
func (p *pbProfile) module(locs []uint64) string {
	for _, l := range locs {
		for _, f := range p.locFns[l] {
			idx := p.fnName[f]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			if rest, ok := strings.CutPrefix(p.strs[idx], "repro/internal/"); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
		}
	}
	return "runtime"
}

func parseProfile(raw []byte) (*pbProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &pbProfile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err = pbFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pbSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := pbUints(w, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := pbUints(w, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1]) // cpu nanoseconds
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and wire type, its varint value, or its length-delimited bytes.
func pbFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field, packed or not.
func pbUints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// traceReport is the traced run's file: every span, the per-layer figures
// of one unit, the per-module CPU shares and what tracing cost.
type traceReport struct {
	Workload   string                  `json:"workload"`
	Seed       int64                   `json:"seed"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	GoVersion  string                  `json:"go_version"`
	Units      int                     `json:"units"`
	Overhead   float64                 `json:"trace_overhead"`
	Metrics    map[string]metricResult `json:"metrics"`
	Counters   map[string]float64      `json:"counters"`
	Spans      []span                  `json:"spans"`
}

func writeTrace(path string, r *run, name string, res *result) error {
	rep := traceReport{
		Workload: name, Seed: r.seed, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Units: r.units, Overhead: res.Metrics["host.trace_overhead"].Value,
		Metrics: res.Metrics, Counters: r.layers, Spans: r.tr.spans,
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
