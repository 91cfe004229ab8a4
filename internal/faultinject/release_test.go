package faultinject

import (
	"runtime"
	"testing"
	"time"
)

// TestTrialReleasesItsHive checks that a finished trial keeps nothing
// alive: RunTrialOpts stops its engine, so no task goroutine outlives the
// trial, and once the result is taken the whole hive is garbage. The
// trials run one after another on this goroutine, not on a
// parallel.Runner, so the goroutine count and the heap see only them.
func TestTrialReleasesItsHive(t *testing.T) {
	settle := func(base int) int {
		for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
			runtime.Gosched()
		}
		return runtime.NumGoroutine()
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// The previous test's goroutine may still be exiting when this one
	// starts, so the baseline is read once the count has stopped falling:
	// once it has held for ten 1 ms rounds in a row.
	base := runtime.NumGoroutine()
	for held := 0; held < 10; held++ {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n < base {
			base, held = n, -1
		}
	}
	heap0 := liveHeap()
	for _, s := range []Scenario{NodeFailProcCreate, CrashLoop, SurgeFault} {
		if r := RunTrial(s, 0); !r.OK() {
			t.Errorf("%v trial 0 not contained: %s", s, r.Notes)
		}
		if got := settle(base); got != base {
			t.Errorf("%v: %d goroutines after the trial, want the baseline %d", s, got, base)
		}
	}
	const slack = 4 << 20
	grew := int64(liveHeap()) - int64(heap0)
	t.Logf("live heap grew by %.2f MB across three trials", float64(grew)/(1<<20))
	if grew > slack {
		t.Errorf("live heap grew by %.1f MB across three trials, want at most %d MB",
			float64(grew)/(1<<20), slack>>20)
	}
}
