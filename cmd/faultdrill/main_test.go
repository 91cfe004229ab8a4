package main

import (
	"strings"
	"testing"
)

// TestFlagConflict checks the rule that every flag given is one the chosen
// mode reads: each invocation below is one the docs and CI make, or one
// that used to run and silently ignore a flag.
func TestFlagConflict(t *testing.T) {
	cases := []struct {
		args string // the flags given, space-separated
		want string // "" when the invocation is accepted
	}{
		{"", ""},
		{"trials j", ""},
		{"cells json o", ""},
		{"trials j json o v", ""},
		{"scenario trial", ""},
		{"scenario trial top", ""},
		{"scenario trial trace cells", ""},
		{"sweep", ""},
		{"sweep points json o", ""},
		{"sweep v j", ""},

		{"trial", "-trial needs -scenario"},
		{"top", "-top needs -scenario"},
		{"trials trace", "-trace needs -scenario"},
		{"scenario trial trials", "-trials is not read with -scenario"},
		{"scenario v", "-v is not read with -scenario"},
		{"scenario trial json o", "-json is not read with -scenario"},
		{"scenario o", "-o is not read with -scenario"},
		{"scenario sweep", "-sweep is not read with -scenario"},
		{"scenario points", "-points is not read with -scenario"},
		{"points", "-points needs -sweep"},
		{"sweep trials", "-trials is not read with -sweep"},
		{"o", "-o needs -json"},
		{"trials o", "-o needs -json"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range strings.Fields(c.args) {
			set[f] = true
		}
		if got := flagConflict(set); got != c.want {
			t.Errorf("flags %q: flagConflict = %q, want %q", c.args, got, c.want)
		}
	}
}
