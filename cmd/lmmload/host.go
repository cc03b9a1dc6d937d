package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// header identifies a run: what ran, on what, from which commit. Every
// output starts with it so numbers from different hosts or sessions can
// be told apart and, through CalibNs, normalized against one another.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke,omitempty"`
	Web        string  `json:"web"`
	Docs       int     `json:"docs"`
	Sites      int     `json:"sites"`
	Edges      int     `json:"edges"`
	Clients    int     `json:"clients"`
	InputHash  string  `json:"input_hash"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	CalibNs    float64 `json:"host_calib_ns"`
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# lmmload workload=%s seed=%d seconds=%g traced=%v claim=none\n", h.Workload, h.Seed, h.Seconds, h.Traced)
	fmt.Fprintf(w, "# web=%s docs=%d sites=%d edges=%d clients=%d input_hash=%s\n", h.Web, h.Docs, h.Sites, h.Edges, h.Clients, h.InputHash)
	fmt.Fprintf(w, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s calib_ns=%.0f\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.CalibNs)
}

// calibNs times a fixed kernel that never changes with the repository
// — the dot product of two 1 M-element vectors, 16 MB streamed — and
// returns the median of a few passes in nanoseconds. It is printed,
// never applied: every reported time is as measured.
func calibNs() float64 {
	const n = 1 << 20
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i%7), 1/float64(1+i%5)
	}
	passes := make([]float64, 5)
	for p := range passes {
		start := time.Now()
		var sum float64
		for i, x := range a {
			sum += x * b[i]
		}
		passes[p] = float64(time.Since(start).Nanoseconds())
		calibSink = sum
	}
	return median(passes)
}

// calibSink keeps the compiler from dropping the kernel's result.
var calibSink float64

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, when the build
// ran inside a repository; a plain checkout has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// liveHeapMiB is the Go heap still in use after a full collection: what
// the engine retains.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// sleepOvershootUs reports by how much a 1 ms sleep overshoots on this
// host right now, at the 90th percentile of 200 sleeps, in microseconds.
// A guest whose vCPUs halt during the sleep wakes as late as the host
// lets it; dist-wan sleeps 1 ms about 400 times per query and waits for
// the slowest of four each round, so this number is what its latency
// rides on.
func sleepOvershootUs() float64 {
	over := make([]float64, 200)
	for i := range over {
		start := time.Now()
		time.Sleep(time.Millisecond)
		over[i] = float64(time.Since(start)-time.Millisecond) / float64(time.Microsecond)
	}
	return percentile(sortedCopy(over), 0.90)
}
