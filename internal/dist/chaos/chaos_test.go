package chaos

import (
	"net"
	"testing"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/dist/worker"
)

// fixture starts a real worker behind a proxy running script and
// returns a raw protocol connection to the proxy.
func fixture(t *testing.T, script Script) (*Proxy, *wire.Encoder, *wire.Decoder, net.Conn) {
	t.Helper()
	w := worker.New()
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("worker.Start: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	p, err := NewProxy(addr, script)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	enc, dec, conn := dialProxy(t, p)
	return p, enc, dec, conn
}

func dialProxy(t *testing.T, p *Proxy) (*wire.Encoder, *wire.Decoder, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	wc := wire.NewConn(conn, new(wire.Counters))
	return &wc.Enc, &wc.Dec, conn
}

func ping(t *testing.T, enc *wire.Encoder, dec *wire.Decoder) {
	t.Helper()
	if err := enc.Encode(&wire.Request{Kind: wire.KindPing}); err != nil {
		t.Fatalf("encode ping: %v", err)
	}
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("decode ping response: %v", err)
	}
	if resp.Err != "" {
		t.Fatalf("ping: %s", resp.Err)
	}
}

// TestProxyPassesCleanly: a nil script is a transparent relay.
func TestProxyPassesCleanly(t *testing.T) {
	_, enc, dec, _ := fixture(t, nil)
	for i := 0; i < 3; i++ {
		ping(t, enc, dec)
	}
}

// TestKillAtKindSeversOnce: the scripted kind kills the connection
// exactly once; a redial through the same proxy works again — the
// coordinator-side signature of a recoverable worker death.
func TestKillAtKindSeversOnce(t *testing.T) {
	p, enc, dec, conn := fixture(t, KillAtKind(wire.KindRankLocal))
	ping(t, enc, dec) // other kinds pass
	if err := enc.Encode(&wire.Request{Kind: wire.KindRankLocal}); err == nil {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var resp wire.Response
		if err := dec.Decode(&resp); err == nil {
			t.Fatal("scripted kill did not sever the connection")
		}
	}
	enc2, dec2, _ := dialProxy(t, p)
	ping(t, enc2, dec2)
	if err := enc2.Encode(&wire.Request{Kind: wire.KindRankLocal}); err != nil {
		t.Fatalf("encode after rejoin: %v", err)
	}
	var resp wire.Response
	if err := dec2.Decode(&resp); err != nil {
		t.Fatalf("the kill fired twice: %v", err)
	}
}

// TestDelayKindHoldsRequests: a delayed kind arrives late but intact.
func TestDelayKindHoldsRequests(t *testing.T) {
	const hold = 80 * time.Millisecond
	_, enc, dec, _ := fixture(t, DelayKind(wire.KindPing, hold))
	start := time.Now()
	ping(t, enc, dec)
	if elapsed := time.Since(start); elapsed < hold {
		t.Errorf("delayed ping returned in %v, want >= %v", elapsed, hold)
	}
}

// TestDuplicateKindKeepsStreamInSync: delivering a request twice and
// forwarding the retransmission's response must leave the frame stream
// aligned — the next exchange still pairs correctly.
func TestDuplicateKindKeepsStreamInSync(t *testing.T) {
	_, enc, dec, _ := fixture(t, DuplicateKind(wire.KindPing))
	ping(t, enc, dec)
	ping(t, enc, dec) // stream still request/response aligned
}

// TestRewriteEditsTheAnswer: a Rewrite decision hands the coordinator
// the worker's answer as the script left it, and the stream stays
// aligned for the exchange after.
func TestRewriteEditsTheAnswer(t *testing.T) {
	rewritten := false
	_, enc, dec, _ := fixture(t, func(_ int, req *wire.Request) Decision {
		if rewritten {
			return Decision{}
		}
		rewritten = true
		return Decision{Rewrite: func(resp *wire.Response) { resp.Err = "rewritten" }}
	})
	if err := enc.Encode(&wire.Request{Kind: wire.KindPing}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Err != "rewritten" {
		t.Errorf("answer arrived with Err %q, want the rewritten one", resp.Err)
	}
	ping(t, enc, dec)
}

// TestBlackholeSwallowsOneCall: the blackholed request is never
// answered (the caller's read times out), yet the proxied connection
// itself stays up and later exchanges pass.
func TestBlackholeSwallowsOneCall(t *testing.T) {
	_, enc, dec, conn := fixture(t, BlackholeAtKind(wire.KindPing))
	if err := enc.Encode(&wire.Request{Kind: wire.KindPing}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var resp wire.Response
	if err := dec.Decode(&resp); err == nil {
		t.Fatal("blackholed request was answered")
	}
	conn.SetReadDeadline(time.Time{})
	// The partition was transient: the once-only script passes the next
	// ping, whose response pairs with the new read.
	ping(t, enc, dec)
}

// TestSetScriptHealsLink: clearing the script mid-life turns the proxy
// back into a transparent relay for new connections.
func TestSetScriptHealsLink(t *testing.T) {
	p, enc, dec, conn := fixture(t, KillAtKind(wire.KindPing))
	if err := enc.Encode(&wire.Request{Kind: wire.KindPing}); err == nil {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var resp wire.Response
		if err := dec.Decode(&resp); err == nil {
			t.Fatal("kill script did not fire")
		}
	}
	p.SetScript(nil)
	enc2, dec2, _ := dialProxy(t, p)
	ping(t, enc2, dec2)
}
