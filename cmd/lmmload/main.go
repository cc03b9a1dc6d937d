// Command lmmload is the repository's benchmark: it runs one workload
// against a serving engine in a fresh process, checks the answers and
// prints every metric by name with its unit. README.md has the metric
// glossary; BENCHMARK.json at the repository root has the contract.
//
//	go run ./cmd/lmmload -workload solve-paper -seed 1
//	go run ./cmd/lmmload -workload dist-wan -seed 1 -trace 1
//	go run ./cmd/lmmload -selfcheck 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// defaultSeconds is run_seconds of BENCHMARK.json (a test keeps the two
// equal): the length every comparison is made at.
const defaultSeconds = 18

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// Exit codes: 0 a correct run, 1 a run with failed operations or
// checks (the result line is still printed, with "correct": false),
// 2 a run that could not be carried out (no result line).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lmmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: solve-paper, serve-topk, serve-churn or dist-wan")
	seed := fs.Int64("seed", 1, "seed of the generated traffic (queries, tenants, edits)")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase in seconds; the benchmark's driver passes run_seconds of BENCHMARK.json")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and trace-<workload>.json")
	smoke := fs.Bool("smoke", false, "use the small test web, for a quick end-to-end pass of the harness")
	out := fs.String("out", ".lmmload", "directory the traced run writes its span file to")
	selfcheck := fs.Int("selfcheck", 0, "run two interleaved sets of N runs of every workload and compare them against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selfcheck > 0 {
		if err := runSelfcheck(*selfcheck, *seconds, stdout); err != nil {
			fmt.Fprintln(stderr, "lmmload:", err)
			return 2
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "lmmload:", err)
		fs.Usage()
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "lmmload: -seconds must be positive")
		return 2
	}
	res, err := run(runConfig{workload: w, seed: *seed, seconds: *seconds, traced: *trace != 0, smoke: *smoke, outDir: *out, out: stdout})
	if err != nil {
		fmt.Fprintln(stderr, "lmmload:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "lmmload:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
