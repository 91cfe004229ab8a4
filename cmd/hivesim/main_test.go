package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestDashboardAfterFault runs the operator's dashboard over a fail-stop
// fault (README's invocation) and pins a digest of everything it prints,
// as the TestGolden* pins do: a change to the run, a view or its order
// moves the digest and must update it and say why. The run must report
// only once recovery has finished: every survivor's timeline reaches
// recovery:resume.
func TestDashboardAfterFault(t *testing.T) {
	const wantDigest = uint64(0xcd974ae806b34cc9)
	var out bytes.Buffer
	args := strings.Fields("-fail 2 -failat 2s -interval 1s -forensic -hist 3 -tail 12")
	if code := run(args, &out); code != 0 {
		t.Fatalf("run(%q) = %d, want 0; output:\n%s", args, code, out.String())
	}
	d := fnv.New64a()
	d.Write(out.Bytes())
	if got := d.Sum64(); got != wantDigest {
		t.Errorf("output digest = %#x, want %#x; output:\n%s", got, wantDigest, out.String())
	}
	for _, cell := range []int{0, 1, 3} {
		if !strings.Contains(out.String(), fmt.Sprintf("cell %d  recovery:resume", cell)) {
			t.Errorf("survivor cell %d never reaches recovery:resume", cell)
		}
	}
	if strings.Contains(out.String(), "(unfinished)") {
		t.Error("the timeline reports an unfinished phase")
	}
}
