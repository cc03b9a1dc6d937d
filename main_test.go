package lmmrank

import (
	"fmt"
	"os"
	"testing"
	"time"

	"lmmrank/internal/dist/chaos"
)

// TestMain fails the package when goroutines of the distributed runtime
// outlive its tests: every fleet a DistEngine test started — its workers,
// their serve loops and the coordinator's redialers — must be gone once
// the tests' own cleanups have run.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := chaos.LeakedGoroutines(2 * time.Second); leaked != "" && code == 0 {
		fmt.Fprintf(os.Stderr, "goroutines of the distributed runtime outlived the tests:\n\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}
