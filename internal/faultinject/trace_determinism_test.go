package faultinject

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// tracedTrials runs n NodeFailRandom trials with trace export enabled on a
// pool of the given width and returns the concatenated Chrome trace JSON
// plus the marshalled campaign row.
func tracedTrials(t *testing.T, workers, n int) ([]byte, []byte) {
	t.Helper()
	opts := TrialOpts{KeepEvents: true, TraceCap: 1 << 14}
	trials := parallel.Map(parallel.New(workers), n, func(i int) *TrialResult {
		return RunTrialOpts(NodeFailRandom, i, opts)
	})
	var traces bytes.Buffer
	for i, tr := range trials {
		if len(tr.Events) == 0 {
			t.Fatalf("trial %d: no events kept", i)
		}
		if err := trace.ExportChrome(&traces, tr.Cells, tr.Events); err != nil {
			t.Fatalf("trial %d: export: %v", i, err)
		}
	}
	row, err := json.Marshal(Aggregate(NodeFailRandom, trials))
	if err != nil {
		t.Fatal(err)
	}
	return traces.Bytes(), row
}

// TestTraceAndMetricsDeterminism is the observability regression gate: the
// exported Chrome trace and the histogram-backed campaign row must be
// byte-identical whether trials run sequentially (-j1) or interleaved on a
// four-worker pool (-j4), and across repeated same-seed runs.
func TestTraceAndMetricsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six traced injection trials")
	}
	const n = 2
	seqTrace, seqRow := tracedTrials(t, 1, n)
	parTrace, parRow := tracedTrials(t, 4, n)
	againTrace, againRow := tracedTrials(t, 4, n)

	if !bytes.Equal(seqTrace, parTrace) {
		t.Errorf("trace JSON diverged between -j1 (%d bytes) and -j4 (%d bytes)",
			len(seqTrace), len(parTrace))
	}
	if !bytes.Equal(parTrace, againTrace) {
		t.Errorf("trace JSON diverged between repeated same-seed -j4 runs")
	}
	if !bytes.Equal(seqRow, parRow) || !bytes.Equal(parRow, againRow) {
		t.Errorf("campaign row diverged:\n-j1:  %s\n-j4:  %s\n-j4': %s", seqRow, parRow, againRow)
	}

	// The export must actually contain structure worth gating on: at
	// least one cross-cell RPC slice and the recovery phase spans.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	first := seqTrace[:bytes.IndexByte(seqTrace, '\n')+1]
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	seen := map[string]bool{}
	rpcSlices := 0
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
		if e.Ph == "X" && len(e.Name) > 4 && e.Name[:4] == "rpc:" {
			rpcSlices++
		}
	}
	for _, want := range []string{
		"recovery:detect", "recovery:alert", "recovery:barrier1",
		"recovery:barrier2", "recovery:resume",
	} {
		if !seen[want] {
			t.Errorf("trace missing recovery phase span %q", want)
		}
	}
	if rpcSlices == 0 {
		t.Error("trace has no RPC slices")
	}
}
