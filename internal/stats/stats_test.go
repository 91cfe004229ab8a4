package stats

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestSampler(t *testing.T) {
	e := sim.NewEngine(1)
	s := &Sampler{Interval: 10 * sim.Millisecond}
	v := 0.0
	s.Start(e, func() float64 { v++; return v })
	e.Run(55 * sim.Millisecond)
	s.Stop()
	e.Run(100 * sim.Millisecond)
	if n := len(s.values); n != 5 {
		t.Fatalf("samples = %d, want 5", n)
	}
	if s.Mean() != 3 || s.Max() != 5 {
		t.Fatalf("mean=%f max=%f", s.Mean(), s.Max())
	}
}

func TestSamplerDefaultInterval(t *testing.T) {
	e := sim.NewEngine(1)
	s := &Sampler{}
	s.Start(e, func() float64 { return 1 })
	e.Run(45 * sim.Millisecond)
	if len(s.values) != 2 { // 20 ms default: samples at 20, 40
		t.Fatalf("samples = %d", len(s.values))
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("title", "name", "value")
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-name", "22")
	for _, cells := range [][]string{{"extra", "1", "dropped"}, {"missing"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddRow(%q) under 2 headers did not panic", cells)
				}
			}()
			tb.AddRow(cells...)
		}()
	}
	out := tb.String()
	if !strings.HasPrefix(out, "title\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[2], "---") {
		t.Fatalf("header/separator malformed: %q", out)
	}
	// Columns align: the "value" column starts at the same offset in
	// every row.
	idx := strings.Index(lines[1], "value")
	if !strings.HasPrefix(lines[3][idx:], "1") || !strings.HasPrefix(lines[4][idx:], "22") {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestRecord(t *testing.T) {
	r := Record{}
	if got := r.Cell("lat_us", "%.1f µs", 7.21); got != "7.2 µs" {
		t.Errorf("Cell = %q", got)
	}
	if got := r.Flag("ok", true) + r.Flag("bad", false); got != "truefalse" {
		t.Errorf("Flag = %q", got)
	}
	if len(r) != 3 || r["lat_us"] != 7.21 || r["ok"] != 1 || r["bad"] != 0 {
		t.Errorf("recorded %v", r)
	}
	var none Record
	if none.Cell("x", "%.0f", 3) != "3" || none.Flag("y", true) != "true" {
		t.Error("a nil Record must still format")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Counter("a").Inc()
	if r.Counter("a").Value() != 3 {
		t.Fatal("counter identity broken")
	}
	if names := r.CounterNames(); len(names) != 2 || names[0] != "a" {
		t.Fatalf("names = %v", names)
	}
	snap := r.Snapshot()
	if !strings.Contains(snap, "a") || !strings.Contains(snap, "3") {
		t.Fatalf("snapshot = %q", snap)
	}
}
