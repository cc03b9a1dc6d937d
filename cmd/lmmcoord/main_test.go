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

// TestRunsBelowOneIsAUsageError: -runs 0 ranks nothing, so it is refused
// with the other flag checks — before any worker is dialed, here one
// nothing listens on — instead of reaching the top-k table with no
// result to print.
func TestRunsBelowOneIsAUsageError(t *testing.T) {
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
	flag.CommandLine = flag.NewFlagSet("lmmcoord", flag.ContinueOnError)
	os.Args = []string{"lmmcoord", "-graph", path, "-workers", dead, "-runs", "0"}
	if err := run(); err == nil || !strings.Contains(err.Error(), "-runs 0") {
		t.Fatalf("run with -runs 0 = %v, want the -runs usage error", err)
	}
}
