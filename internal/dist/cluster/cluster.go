// Package cluster wires a complete in-process distributed fleet on
// loopback TCP: n workers plus a connected coordinator. It exists so
// examples, tests and experiments can exercise the real networked
// runtime — actual sockets, actual wire frames, actual byte counts —
// without provisioning machines.
package cluster

import (
	"fmt"
	"sync"

	"lmmrank/internal/dist/chaos"
	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/dist/worker"
)

// Local is an in-process loopback fleet. Workers and coordinator run in
// this process but talk TCP like a real deployment.
type Local struct {
	// Workers are the running peers, in address order.
	Workers []*worker.Worker
	// Addrs are the addresses the coordinator dialed, aligned with
	// Workers: the workers' own loopback addresses from StartLocal, the
	// fault proxies' from StartChaosLocal.
	Addrs []string
	// Proxies are the per-worker fault-injection proxies of a
	// StartChaosLocal fleet (nil from StartLocal), aligned with
	// Workers. Swap scripts with Proxy.SetScript to inject faults.
	Proxies []*chaos.Proxy
	// Coord is connected to every worker and ready to Rank.
	Coord *coordinator.Coordinator

	mu     sync.Mutex
	closed bool
}

// StartLocal launches n workers on 127.0.0.1 (kernel-assigned ports)
// and dials a coordinator to all of them. On any failure everything
// already started is torn down.
func StartLocal(n int) (*Local, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 worker, got %d", n)
	}
	l := &Local{}
	for i := 0; i < n; i++ {
		w := worker.New()
		addr, err := w.Start("127.0.0.1:0")
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: starting worker %d: %w", i, err)
		}
		l.Workers = append(l.Workers, w)
		l.Addrs = append(l.Addrs, addr)
	}
	coord, err := coordinator.Dial(l.Addrs)
	if err != nil {
		l.Close()
		return nil, err
	}
	l.Coord = coord
	return l, nil
}

// StartChaosLocal is StartLocal with a chaos.Proxy spliced between the
// coordinator and every worker: the coordinator dials the proxies, so
// tests can kill, delay, partition or duplicate any worker's traffic
// mid-run by script — while the worker process (and its warm digest
// cache) survives, which is what makes redial-and-rejoin meaningful.
// Proxies start with a nil (pass-everything) script.
func StartChaosLocal(n int) (*Local, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 worker, got %d", n)
	}
	l := &Local{}
	for i := 0; i < n; i++ {
		w := worker.New()
		addr, err := w.Start("127.0.0.1:0")
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: starting worker %d: %w", i, err)
		}
		l.Workers = append(l.Workers, w)
		p, err := chaos.NewProxy(addr, nil)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: starting proxy %d: %w", i, err)
		}
		l.Proxies = append(l.Proxies, p)
		l.Addrs = append(l.Addrs, p.Addr())
	}
	coord, err := coordinator.Dial(l.Addrs)
	if err != nil {
		l.Close()
		return nil, err
	}
	l.Coord = coord
	return l, nil
}

// Kill abruptly stops worker i (dropping its connections mid-protocol),
// simulating a peer dying mid-run — the failure mode the coordinator's
// RetryPolicy recovers from. The worker cannot be restarted; tests and
// chaos experiments use Kill to exercise shard reassignment.
func (l *Local) Kill(i int) error {
	if i < 0 || i >= len(l.Workers) {
		return fmt.Errorf("cluster: kill worker %d of %d", i, len(l.Workers))
	}
	return l.Workers[i].Close()
}

// Close hangs up the coordinator and stops every worker. Calling Close
// again is a no-op.
func (l *Local) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	var first error
	if l.Coord != nil {
		if err := l.Coord.Close(); err != nil {
			first = err
		}
	}
	for _, p := range l.Proxies {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, w := range l.Workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
