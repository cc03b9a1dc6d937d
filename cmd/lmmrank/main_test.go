package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagsAreUsageErrors: a -damping no ranking can honour is
// refused before the graph is read — here a path where no file is, so a
// check made after the read would fail on the missing file instead.
// -damping 0 would rank at the 0.85 default its zero stands for, and
// -damping 1 or NaN would be refused only by the solver.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no.graph")
	args, flags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, flags }()
	for _, tc := range []struct{ flag, value, want string }{
		{"-damping", "0", "-damping 0"},
		{"-damping", "1", "-damping 1"},
		{"-damping", "NaN", "-damping NaN"},
	} {
		flag.CommandLine = flag.NewFlagSet("lmmrank", flag.ContinueOnError)
		os.Args = []string{"lmmrank", "-graph", missing, tc.flag, tc.value}
		if err := run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run with %s %s = %v, want the %s usage error", tc.flag, tc.value, err, tc.flag)
		}
	}
}
