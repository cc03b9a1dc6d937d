package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lmmrank"
	"lmmrank/internal/dist/cluster"
	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// writeGraph writes dg as a graph file under t's temporary directory and
// returns its path.
func writeGraph(t *testing.T, dg *graph.DocGraph) string {
	path := filepath.Join(t.TempDir(), "web.graph")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.EncodeBinary(f, dg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runWith runs the command with args and returns what it printed.
func runWith(t *testing.T, args ...string) (string, error) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	osArgs, flags, stdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = osArgs, flags, stdout }()
	flag.CommandLine = flag.NewFlagSet("lmmcoord", flag.ContinueOnError)
	os.Args, os.Stdout = append([]string{"lmmcoord"}, args...), out
	runErr := run()
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// TestRanksOnAFleet drives a live 3-worker fleet through two runs at the
// default -damping: the table is LayeredDocRank's top documents, and the
// second run, composed from what the first filled, sends no message,
// re-ships no shard and hashes nothing.
func TestRanksOnAFleet(t *testing.T) {
	dg := webgen.Generate(webgen.Small()).Graph
	path := writeGraph(t, dg)
	cl, err := cluster.StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const top = 5
	out, err := runWith(t, "-graph", path, "-workers", strings.Join(cl.Addrs, ","), "-runs", "2", "-top", fmt.Sprint(top))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	ref, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	var run2, run2Ranked string
	table := false
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); table && len(f) == 3 {
			urls = append(urls, f[2])
		}
		table = table || strings.HasPrefix(line, "#")
		if strings.HasPrefix(line, "run 2: cache") {
			run2 = line
		}
		if strings.HasPrefix(line, "run 2: ranked") {
			run2Ranked = line
		}
	}
	if !strings.Contains(run2Ranked, "; 0 messages,") {
		t.Errorf("run 2 printed %q, want 0 messages: 0.85 is the default damping", run2Ranked)
	}
	if !strings.Contains(run2, "/ 0 shards re-shipped") || !strings.Contains(run2, "; 0.00 MB hashed for digests") {
		t.Errorf("run 2 printed %q, want 0 shards re-shipped and 0.00 MB hashed", run2)
	}
	want := lmmrank.TopDocs(dg, ref.DocRank, top)
	if len(urls) != len(want) {
		t.Fatalf("the table lists %d documents, want %d:\n%s", len(urls), len(want), out)
	}
	for i, e := range want {
		if urls[i] != e.URL {
			t.Errorf("#%d is %s, want LayeredDocRank's %s", i+1, urls[i], e.URL)
		}
	}
}

// TestBadFlagsAreUsageErrors: a flag value no run can honour is refused
// with the other flag checks — before any worker is dialed, here one
// nothing listens on. -runs 0 would reach the top-k table with no result
// to print; -damping 0 would rank at the 0.85 default its zero stands
// for, and -damping 1 or NaN would be refused only after the fleet was
// dialed and the Ranker precomputed.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	path := writeGraph(t, webgen.Generate(webgen.Small()).Graph)
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
