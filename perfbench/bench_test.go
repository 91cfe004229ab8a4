package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks
// against what the benchmark emits.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// tinyRun runs one workload at a tiny size: one warm-up unit and two
// measured ones.
func tinyRun(t *testing.T, name string, traced bool) (*run, *result) {
	t.Helper()
	if _, ok := workloads[name]; !ok {
		t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", name)
	}
	r := &run{seed: 1, warmup: 1, units: 2, tiny: true}
	if traced {
		r.tr = newTracer()
	}
	res, err := execute(r, name, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.failures {
		t.Errorf("%s: %s", name, f)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return r, res
}

// checkEmitted requires every metric BENCHMARK.json names, and no other,
// with its unit.
func checkEmitted(t *testing.T, name string, want []metricSpec, got map[string]metricResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", name, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", name, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", name, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", name, m.Name, g.Value)
		}
	}
}

func TestUntracedRunEmitsEndToEndMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		r, res := tinyRun(t, w.Name, false)
		checkEmitted(t, w.Name, bj.EndToEnd, res.Metrics)
		for _, m := range bj.EndToEnd {
			if v := res.Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
		// The deterministic figures of the two measured units repeat
		// exactly (the run itself fails otherwise; this pins that the
		// comparison happened). The tiny campaign repeats one scenario.
		if r.attempted != 2 {
			t.Errorf("%s: %d measured units, want 2", w.Name, r.attempted)
		}
		if d := r.det[0]; len(d) != 2 || !reflect.DeepEqual(d[0], d[1]) {
			t.Errorf("%s: deterministic figures differ between units: %v", w.Name, d)
		}
	}
}

func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		r, res := tinyRun(t, w.Name, true)
		checkEmitted(t, w.Name, bj.PerLayer, res.Metrics)
		sum := 0.0
		for _, m := range cpuModules {
			sum += res.Metrics[m+".cpu_share"].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %v", w.Name, sum)
		}
		if err := wellFormed(r.tr.spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		names := map[string]bool{}
		for _, s := range r.tr.spans {
			names[s.Name] = true
		}
		root := "iteration"
		if w.Name == "campaign" {
			root = "trial"
		}
		for _, n := range []string{root, "boot", "run", "ref"} {
			if !names[n] {
				t.Errorf("%s: no %q span", w.Name, n)
			}
		}
	}
}

// wellFormed checks the span tree: ids in order, every parent an earlier
// open root of the same trace, every child inside its parent's interval.
func wellFormed(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has later parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Parent != 0 || p.Trace != s.Trace {
			return fmt.Errorf("span %d (%s) has parent %d outside its trace", s.ID, s.Name, p.ID)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

func TestWellFormedRejectsEscapingChild(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "iteration", Start: 0, End: 1},
		{ID: 2, Parent: 1, Trace: 1, Name: "run", Start: 0.5, End: 1.5},
	}
	if wellFormed(spans) == nil {
		t.Error("child ending after its parent was accepted")
	}
}
