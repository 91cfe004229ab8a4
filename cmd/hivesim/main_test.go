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

// TestIRIXReadsItsFlags checks the flags the IRIX baseline reads as the
// hive path does, and the ones no run can honour: -irix -forensic keeps
// every event in its widened rings, -irix refuses -cells and -reboot,
// and a fault cannot be injected before time 0.
func TestIRIXReadsItsFlags(t *testing.T) {
	cases := []struct {
		args string
		code int
	}{
		{"-irix -forensic", 0},
		{"-irix -cells 16", 2},
		{"-irix -reboot", 2},
		{"-irix -cells 1 -seed 9", 2},
		{"-fail 1 -failat -2s", 2},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			var out bytes.Buffer
			if code := run(strings.Fields(c.args), &out); code != c.code {
				t.Errorf("run(%q) = %d, want %d", c.args, code, c.code)
			}
			if strings.Contains(out.String(), "dropped") {
				t.Errorf("run(%q) dropped trace events:\n%s", c.args, out.String())
			}
		})
	}
}
