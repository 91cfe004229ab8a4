// Package stats provides the measurement infrastructure used to regenerate
// the paper's tables: counters, latency histograms, periodic samplers (the
// 20 ms firewall-page samples of §4.2) and aligned text tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Counter is a monotonically increasing event count. Increments are atomic,
// so a counter is safe to share across goroutines, and because integer
// addition commutes the final value does not depend on increment order.
type Counter struct {
	n atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Value returns the count.
func (c *Counter) Value() int64 { return c.n.Load() }

// histBucketsPerOctave sets the Histogram resolution: 4 buckets per
// power of two, i.e. bucket bounds grow by 2^(1/4) ≈ 19 %.
const histBucketsPerOctave = 4

// Histogram accumulates samples into logarithmic buckets and reports
// percentile estimates from the bucket counts. It stores O(buckets)
// state, not O(samples), so it suits unbounded series (per-RPC latency,
// per-fault latency); it is the package's only quantile type. All
// arithmetic is deterministic: samples arrive in engine order and
// quantiles are computed over sorted bucket indices.
type Histogram struct {
	counts   map[int]int64 // bucket index -> count (sparse)
	zero     int64         // samples <= 0
	n        int64
	sum      float64
	min, max float64
}

// bucketOf maps a positive sample to its logarithmic bucket index.
func bucketOf(v float64) int {
	return int(math.Floor(math.Log2(v) * histBucketsPerOctave))
}

// bucketLo returns the inclusive lower bound of bucket idx.
func bucketLo(idx int) float64 {
	return math.Pow(2, float64(idx)/histBucketsPerOctave)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h.counts == nil {
		h.counts = make(map[int]int64)
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	if v <= 0 {
		h.zero++
		return
	}
	h.counts[bucketOf(v)]++
}

// ObserveTime records a sim.Time sample in microseconds.
func (h *Histogram) ObserveTime(t sim.Time) { h.Observe(t.Micros()) }

// Merge folds another histogram's samples into h. Bucket counts add
// exactly, so the merged quantiles are identical to observing both
// sample streams into one histogram in any order — which is what makes
// per-cell histograms safe to merge into one SLO curve after the run.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make(map[int]int64)
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	h.zero += o.zero
	for _, idx := range o.sortedBuckets() {
		h.counts[idx] += o.counts[idx]
	}
}

// N returns the sample count.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the average, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest sample, or 0 with none.
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with none.
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// sortedBuckets returns the occupied bucket indices ascending.
func (h *Histogram) sortedBuckets() []int {
	idxs := make([]int, 0, len(h.counts))
	for i := range h.counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

// Quantile estimates the q-th quantile (0..1) by nearest rank over the
// buckets, returning the geometric midpoint of the selected bucket
// clamped to the observed min/max. Exact for the extremes (0 -> Min,
// 1 -> Max), within one bucket width (±19 %) elsewhere.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank <= h.zero {
		return h.min // the <=0 bucket: its smallest member is the min
	}
	seen := h.zero
	for _, idx := range h.sortedBuckets() {
		seen += h.counts[idx]
		if seen >= rank {
			mid := math.Sqrt(bucketLo(idx) * bucketLo(idx+1))
			return math.Min(math.Max(mid, h.min), h.max)
		}
	}
	return h.max
}

// HistBucket is one occupied bucket of a snapshot.
type HistBucket struct {
	Lo, Hi float64 // [Lo, Hi)
	Count  int64
}

// HistSnapshot is a Histogram rendered to plain values.
type HistSnapshot struct {
	N              int64
	Mean, Min, Max float64
	P50, P90, P99  float64
	P999           float64
	Buckets        []HistBucket // ascending; <=0 samples as [0,0)
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		N: h.n, Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
	if h.zero > 0 {
		s.Buckets = append(s.Buckets, HistBucket{Count: h.zero})
	}
	for _, idx := range h.sortedBuckets() {
		s.Buckets = append(s.Buckets, HistBucket{
			Lo: bucketLo(idx), Hi: bucketLo(idx + 1), Count: h.counts[idx],
		})
	}
	return s
}

// Format renders the snapshot: a summary line plus up to maxRows bucket
// bars (largest first; <=0 keeps every bucket), for dashboards.
func (s HistSnapshot) Format(maxRows int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
		s.N, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max)
	rows := append([]HistBucket(nil), s.Buckets...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Lo < rows[j].Lo })
	var peak int64 = 1
	for _, b := range rows {
		if b.Count > peak {
			peak = b.Count
		}
	}
	for _, b := range rows {
		bar := int(b.Count * 24 / peak)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&sb, "  [%9.1f,%9.1f) %-24s %d\n",
			b.Lo, b.Hi, strings.Repeat("#", bar), b.Count)
	}
	return sb.String()
}

// Sampler records a value at fixed virtual-time intervals; used for the
// remotely-writable-page samples (§4.2: 5.0 s sampled at 20 ms).
type Sampler struct {
	Interval sim.Time
	values   []float64
	stopped  bool
}

// Start begins sampling fn every Interval on the engine until Stop.
func (s *Sampler) Start(e *sim.Engine, fn func() float64) {
	if s.Interval <= 0 {
		s.Interval = 20 * sim.Millisecond
	}
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		s.values = append(s.values, fn())
		e.After(s.Interval, tick)
	}
	e.After(s.Interval, tick)
}

// Stop ends sampling.
func (s *Sampler) Stop() { s.stopped = true }

// Mean returns the average sample, or 0 with none.
func (s *Sampler) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Max returns the largest sample, or 0 with none.
func (s *Sampler) Max() float64 {
	var m float64
	for _, v := range s.values {
		if v > m {
			m = v
		}
	}
	return m
}

// Record holds the metrics a report's tables print, by name. Cell and
// Flag are the one way a measured value reaches a table: each formats the
// value as its cell and records it, so what a table prints is what the
// record holds. A nil Record only formats.
type Record map[string]float64

// Cell records v under name and returns it, in format, as the table cell
// that shows it.
func (r Record) Cell(name, format string, v float64) string {
	if r != nil {
		r[name] = v
	}
	return fmt.Sprintf(format, v)
}

// Flag records a yes/no measurement under name as 1 or 0 and returns it
// as the cell "true" or "false".
func (r Record) Flag(name string, b bool) string {
	if r != nil {
		var v float64
		if b {
			v = 1
		}
		r[name] = v
	}
	return fmt.Sprint(b)
}

// Table builds aligned text tables for the benchmark harness output.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends one row. It panics unless there is exactly one cell per
// header: a dropped cell would be a recorded metric that is never printed.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.headers) {
		panic(fmt.Sprintf("stats: table %q: row of %d cells under %d headers", t.Title, len(cells), len(t.headers)))
	}
	t.rows = append(t.rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Registry is a named collection of counters and histograms, one per
// cell/kernel, so experiments can pull out whichever metrics they report.
// Lookup (and lazy creation) is guarded by a lock so a registry is safe to
// share across goroutines; hot paths should cache the returned pointer
// when the name is fixed.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok = r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Cached returns the counter held in *slot, looking the named counter up
// (and so creating it) on the first call only. A hot path keeps one slot
// per counter and increments through it, skipping the lock and the name
// hash, while the counter still enters the registry when first used. The
// slot is not synchronized: it belongs to one simulation's thread.
func (r *Registry) Cached(slot **Counter, name string) *Counter {
	if *slot == nil {
		*slot = r.Counter(name)
	}
	return *slot
}

// Hist returns (creating if needed) the named histogram.
func (r *Registry) Hist(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok = r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistNames returns all histogram names, sorted.
func (r *Registry) HistNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterNames returns all counter names, sorted.
func (r *Registry) CounterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot renders every nonzero counter; for debugging and cmd output.
func (r *Registry) Snapshot() string {
	var sb strings.Builder
	for _, n := range r.CounterNames() {
		if v := r.Counter(n).Value(); v != 0 {
			fmt.Fprintf(&sb, "  %-40s %12d\n", n, v)
		}
	}
	return sb.String()
}
