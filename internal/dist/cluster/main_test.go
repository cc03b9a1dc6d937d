package cluster

import (
	"fmt"
	"os"
	"testing"
	"time"

	"lmmrank/internal/dist/chaos"
)

// TestMain fails the package when goroutines of the distributed runtime
// outlive its tests: every redialer, async driver, proxy and worker serve
// loop a test started — the cancelled and fault-injected runs included —
// must be gone once the tests' own cleanups have run.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := chaos.LeakedGoroutines(2 * time.Second); leaked != "" && code == 0 {
		fmt.Fprintf(os.Stderr, "goroutines of the distributed runtime outlived the tests:\n\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}
