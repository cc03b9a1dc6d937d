package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck is the acceptance procedure run on one tree: two sets
// of n runs of every workload, interleaved so that drift of the host
// hits both alike, every run a fresh process with its own seed. For
// each workload and metric it prints both sets' quartiles, each set's
// spread (interquartile distance over median) and the relative
// difference of the two medians. An end-to-end metric passes when the
// medians differ by no more than its bound in either direction and both
// spreads stay within it; the load metrics that carry no bound are
// listed the same way, unjudged.
func runSelfcheck(n int, seconds float64, out io.Writer) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	// values[workload][set][metric] = one value per run
	values := make(map[string][2]map[string][]float64)
	for _, w := range workloads {
		values[w.name] = [2]map[string][]float64{{}, {}}
	}
	for i := 1; i <= n; i++ {
		for _, w := range workloads {
			for k := 0; k < 2; k++ {
				set := (k + i) % 2 // alternate which set runs first
				got, err := runChild(exe, w.name, int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, i, err)
				}
				fmt.Fprintf(out, "# run %d/%d %s set %c:", i, n, w.name, 'A'+set)
				for _, m := range judged(bf) {
					values[w.name][set][m.name] = append(values[w.name][set][m.name], got[m.name])
					fmt.Fprintf(out, " %s=%.4g", m.name, got[m.name])
				}
				fmt.Fprintln(out)
			}
		}
	}

	pass := true
	fmt.Fprintf(out, "%-12s %-14s %10s %10s %10s %8s | %10s %10s %10s %8s | %8s %6s  %s\n",
		"workload", "metric", "A.q1", "A.med", "A.q3", "A.sprd", "B.q1", "B.med", "B.q3", "B.sprd", "B vs A", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range judged(bf) {
			row, ok := compareSets(values[w.name][0][m.name], values[w.name][1][m.name], m.bound)
			fmt.Fprintf(out, "%-12s %-14s %s\n", w.name, m.name, row)
			pass = pass && ok
		}
	}
	if !pass {
		return fmt.Errorf("selfcheck: at least one end-to-end metric was outside its bound")
	}
	return nil
}

// compareSets formats one row of the self-check and says whether the
// two sets agree: their medians differ by no more than bound in either
// direction — a second set that is much better repeats as badly as one
// that is much worse — and neither set spreads wider than bound. A
// metric without a bound (bound 0) is listed and always passes.
func compareSets(a, b []float64, bound float64) (row string, ok bool) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	aSpread, bSpread := (aq3-aq1)/amed, (bq3-bq1)/bmed
	diff := (bmed - amed) / amed
	verdict, limit, ok := "-", "-", true
	if bound > 0 {
		verdict, limit = "PASS", fmt.Sprintf("%.2f", bound)
		if math.Abs(diff) > bound || aSpread > bound || bSpread > bound {
			verdict, ok = "FAIL", false
		}
	}
	return fmt.Sprintf("%10.4g %10.4g %10.4g %8.4f | %10.4g %10.4g %10.4g %8.4f | %+8.4f %6s  %s",
		aq1, amed, aq3, aSpread, bq1, bmed, bq3, bSpread, diff, limit, verdict), ok
}

// judgedMetric is a row of the self-check: an end-to-end metric with
// its bound, or a load metric without one (bound 0).
type judgedMetric struct {
	name  string
	bound float64
}

func judged(bf benchmarkFile) []judgedMetric {
	var ms []judgedMetric
	for _, m := range bf.EndToEnd {
		ms = append(ms, judgedMetric{m.Name, m.Bound})
	}
	for _, s := range ungated {
		ms = append(ms, judgedMetric{s.name, 0})
	}
	return ms
}

// runChild runs one workload in a fresh process and returns every
// metric of the table it prints ("name value unit" lines), after
// checking the result line it prints last.
func runChild(exe, workload string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	got := make(map[string]float64)
	for _, line := range lines {
		if f := strings.Fields(line); len(f) == 3 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				got[f[0]] = v
			}
		}
	}
	for name, m := range res.Metrics {
		got[name] = m.Value // all digits, where the result line has them
	}
	return got, nil
}
