package main

import (
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// TestBadFlagsAreUsageErrors: a flag value no run can honour is refused
// with the other flag checks — before any worker is dialed, here one
// nothing listens on. -runs 0 would reach the top-k table with no result
// to print; -damping 0 would rank at the 0.85 default its zero stands
// for, and -damping 1 or NaN would be refused only after the fleet was
// dialed and the Ranker precomputed.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "web.graph")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.EncodeBinary(f, webgen.Generate(webgen.Small()).Graph); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	args, flags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, flags }()
	for _, tc := range []struct{ flag, value, want string }{
		{"-runs", "0", "-runs 0"},
		{"-damping", "0", "-damping 0"},
		{"-damping", "1", "-damping 1"},
		{"-damping", "NaN", "-damping NaN"},
	} {
		flag.CommandLine = flag.NewFlagSet("lmmcoord", flag.ContinueOnError)
		os.Args = []string{"lmmcoord", "-graph", path, "-workers", dead, tc.flag, tc.value}
		if err := run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run with %s %s = %v, want the %s usage error", tc.flag, tc.value, err, tc.flag)
		}
	}
}
