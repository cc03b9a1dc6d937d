// Package chaos is the fault-injection harness for the distributed
// runtime: a protocol-aware TCP proxy that sits between a coordinator
// and one worker, decodes every wire.Request crossing it, and consults
// a scriptable policy to pass, drop, delay, duplicate or black-hole the
// exchange, or to rewrite the worker's answer. Because the proxy speaks
// the real wire protocol over real sockets, the failures it injects are
// indistinguishable from genuine ones — a Drop is a worker death (the
// coordinator's stream desynchronizes and errLost fires), a Blackhole is
// a network partition (the call times out), a Duplicate probes
// idempotency — and the worker process behind the proxy survives with
// its digest cache warm, which is exactly the peer a redialing
// coordinator re-admits.
//
// Scripts run on the proxy's per-connection serving goroutines and must
// be safe for concurrent use; the stateful helpers in this package
// coordinate through atomics.
package chaos

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lmmrank/internal/dist/wire"
)

// Action says what to do with one intercepted request.
type Action int

const (
	// Pass relays the request and its response unchanged.
	Pass Action = iota
	// Drop closes both sides of the proxied connection immediately —
	// the coordinator observes a mid-exchange worker death. The worker
	// process itself survives; a redial through the proxy reaches it
	// again, warm.
	Drop
	// Delay sleeps Decision.Delay, then passes.
	Delay
	// Duplicate delivers the request to the worker twice and forwards
	// only the second response — a retransmission, probing that the
	// operation is idempotent.
	Duplicate
	// Blackhole swallows the request and never answers — a network
	// partition; the coordinator's call runs into its timeout.
	Blackhole
)

// Decision is a Script's verdict on one request.
type Decision struct {
	Action Action
	// Delay is the sleep for Action Delay.
	Delay time.Duration
	// Rewrite, when non-nil, edits the worker's answer to a delivered
	// request before the coordinator sees it: a live peer answering
	// wrongly, the one fault a transport failure cannot stand in for.
	Rewrite func(resp *wire.Response)
}

// Script decides the fate of each intercepted request. exchange is the
// 1-based request index on this proxied connection (a redialed
// coordinator starts a fresh connection, so the counter restarts — a
// script keyed on absolute progress should keep its own atomic state,
// as KillAtKind does). req is the proxy's decode scratch, valid only
// until the script returns. A nil Script passes everything.
type Script func(exchange int, req *wire.Request) Decision

// Proxy is one scriptable fault-injection point in front of one worker
// address. Start with NewProxy, point the coordinator at Addr instead
// of the worker, stop with Close.
type Proxy struct {
	target string
	ln     net.Listener

	mu     sync.Mutex
	script Script
	conns  map[net.Conn]struct{}
	closed bool

	accepted atomic.Int64
	wg       sync.WaitGroup
}

// NewProxy listens on a fresh loopback port and relays every accepted
// connection to target under script's direction.
func NewProxy(target string, script Script) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		script: script,
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address coordinators should dial instead of the worker.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted reports how many coordinator connections the proxy has
// accepted so far: a redial shows as the count going up.
func (p *Proxy) Accepted() int { return int(p.accepted.Load()) }

// SetScript swaps the fault script; in-flight exchanges finish under
// the old one, the next intercepted request sees the new one. A nil
// script passes everything — "heal" the link by clearing it.
func (p *Proxy) SetScript(s Script) {
	p.mu.Lock()
	p.script = s
	p.mu.Unlock()
}

// Close stops accepting, severs every proxied connection and waits for
// the serving goroutines. Idempotent.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.accepted.Add(1)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serve(conn)
	}
}

func (p *Proxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) currentScript() Script {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.script
}

// serve relays one coordinator connection: decode each request frame
// off the client stream so the script sees a typed wire.Request and can
// act per message kind, then forward the frame's own bytes to the
// worker and relay the response frame back unread.
func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	defer p.forget(client)
	defer client.Close()
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer upstream.Close()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()
	defer p.forget(upstream)

	var counters wire.Counters
	cli, up := wire.NewConn(client, &counters), wire.NewConn(upstream, &counters)
	var scratch wire.Request
	for n := 1; ; n++ {
		f, err := cli.Dec.ReadFrame()
		if err != nil {
			return
		}
		// Decoded for the Script only. A shipment gets a value of its
		// own, so the proxy pins a small request's scratch, not a shard
		// set.
		req := &scratch
		if f.Kind() == wire.KindLoad {
			req = new(wire.Request)
		}
		if err := f.Decode(req); err != nil {
			return
		}
		var d Decision
		if s := p.currentScript(); s != nil {
			d = s(n, req)
		}
		switch d.Action {
		case Drop:
			return // the deferred closes sever both sides mid-exchange
		case Blackhole:
			continue // never answered; the caller times out
		case Delay:
			time.Sleep(d.Delay)
		case Duplicate:
			// Deliver once and discard the response; the pass path below
			// delivers the retransmission and forwards its response.
			if _, err := up.Enc.Write(f); err != nil {
				return
			}
			if err := up.Dec.RelayTo(io.Discard); err != nil {
				return
			}
		}
		if _, err := up.Enc.Write(f); err != nil {
			return
		}
		if d.Rewrite == nil {
			err = up.Dec.RelayTo(&cli.Enc)
		} else {
			var resp wire.Response
			if err = up.Dec.Decode(&resp); err == nil {
				d.Rewrite(&resp)
				err = cli.Enc.Encode(&resp)
			}
		}
		if err != nil {
			return
		}
	}
}

// KillAtKind returns a script that drops the connection at the first
// request of the given kind, once across the proxy's lifetime; every
// other exchange (and every later connection — the redialed rejoin)
// passes untouched.
func KillAtKind(k wire.Kind) Script {
	var killed atomic.Bool
	return func(_ int, req *wire.Request) Decision {
		if req.Kind == k && killed.CompareAndSwap(false, true) {
			return Decision{Action: Drop}
		}
		return Decision{Action: Pass}
	}
}

// KillAtNth returns a script that drops the connection at the n-th
// (1-based) request of the given kind, once; everything else passes.
func KillAtNth(k wire.Kind, n int) Script {
	var seen atomic.Int64
	var killed atomic.Bool
	return func(_ int, req *wire.Request) Decision {
		if req.Kind != k || killed.Load() {
			return Decision{Action: Pass}
		}
		if seen.Add(1) == int64(n) && killed.CompareAndSwap(false, true) {
			return Decision{Action: Drop}
		}
		return Decision{Action: Pass}
	}
}

// DelayKind returns a script that holds every request of the given
// kind for d before passing it — a slow link, not a dead one.
func DelayKind(k wire.Kind, d time.Duration) Script {
	return func(_ int, req *wire.Request) Decision {
		if req.Kind == k {
			return Decision{Action: Delay, Delay: d}
		}
		return Decision{Action: Pass}
	}
}

// DuplicateKind returns a script that delivers every request of the
// given kind twice, forwarding the retransmission's response — the
// idempotency probe.
func DuplicateKind(k wire.Kind) Script {
	return func(_ int, req *wire.Request) Decision {
		if req.Kind == k {
			return Decision{Action: Duplicate}
		}
		return Decision{Action: Pass}
	}
}

// BlackholeAtKind returns a script that swallows the first request of
// the given kind, once — a transient partition; the coordinator's call
// times out, errLost fires, and a redial reaches the worker again.
func BlackholeAtKind(k wire.Kind) Script {
	var holed atomic.Bool
	return func(_ int, req *wire.Request) Decision {
		if req.Kind == k && holed.CompareAndSwap(false, true) {
			return Decision{Action: Blackhole}
		}
		return Decision{Action: Pass}
	}
}

// RecordSites returns a script that passes everything and records the
// Sites of every request of the given kind, and a function that hands
// back, in ascending order, what was recorded since it was last called.
// One script may serve every proxy of a fleet: which sites was the fleet
// asked about?
func RecordSites(k wire.Kind) (Script, func() []int) {
	var mu sync.Mutex
	var sites []int
	script := func(_ int, req *wire.Request) Decision {
		if req.Kind == k {
			mu.Lock()
			sites = append(sites, req.Sites...)
			mu.Unlock()
		}
		return Decision{Action: Pass}
	}
	drain := func() []int {
		mu.Lock()
		defer mu.Unlock()
		out := sites
		sites = nil
		sort.Ints(out)
		return out
	}
	return script, drain
}

// LeakedGoroutines reports what of the distributed runtime is still
// running: it polls for up to wait until no goroutine but the caller's
// has a frame under lmmrank/internal/dist — redialers, proxy and worker
// serve loops all wind down asynchronously after a
// Close or a cancelled run — and returns the stacks of those left, ""
// when there are none. A package's TestMain calls it after its tests.
func LeakedGoroutines(wait time.Duration) string {
	for deadline := time.Now().Add(wait); ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		// The first stack is the caller's own.
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")[1:]
		stacks = slices.DeleteFunc(stacks, func(s string) bool {
			return !strings.Contains(s, "lmmrank/internal/dist")
		})
		if len(stacks) == 0 || time.Now().After(deadline) {
			return strings.Join(stacks, "\n\n")
		}
	}
}
