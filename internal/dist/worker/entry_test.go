package worker

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// webLoad is the Load a coordinator ships for every site of dg — each
// site's columns — as the worker decodes it off the wire.
func webLoad(tb testing.TB, dg *graph.DocGraph) *wire.Request {
	ns := dg.NumSites()
	load := &wire.Request{Kind: wire.KindLoad, NumSites: ns, Shards: make([]wire.SiteShard, ns)}
	for s := range ns {
		load.Shards[s], _ = extract(dg, s)
	}
	return overTheWire(tb, wire.NewConn(new(loopConn), new(wire.Counters)), load)
}

// TestCacheEntryRetention pins what a worker keeps once every site of the
// default web is loaded and ranked: each entry its chain —
// TestTransitionMatrixRetention's 2 B a link (a site's sources fit 2
// bytes), 8 B a document and 6 B a listed link (the divisors and
// multiplicities are link counts, 2 bytes each) — beside a few hundred
// bytes of structs, map and list a site: 28.1 B a document measured, 37.0
// while the divisors and multiplicities were float64, which break it. It
// keeps no solver scratch: a solver's iterate, 8 B a document, went with
// the RankLocal that swept it.
func TestCacheEntryRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	dg.Dedupe()
	w, sess := New(), &session{}
	var links, docs, listed int
	before := liveHeap()
	func() {
		load := webLoad(t, dg)
		for _, s := range load.Shards {
			links, docs, listed = links+len(s.Targets), docs+len(s.Degrees), listed+len(s.ListedPos)
		}
		if resp := w.handle(sess, load); resp.Err != "" {
			t.Fatalf("load: %s", resp.Err)
		}
		if resp := w.handle(sess, &wire.Request{Kind: wire.KindRankLocal}); resp.Err != "" {
			t.Fatalf("rank: %s", resp.Err)
		}
	}()
	retained := int64(liveHeap()) - int64(before)
	const perSite = 512
	ns := dg.NumSites()
	budget := int64(2*links + 8*docs + 6*listed + perSite*ns)
	t.Logf("%d sites, %d docs, %d intra-site links (%d listed): the worker retains %d bytes (%.1f per link, %.1f per doc), budget %d",
		ns, docs, links, listed, retained, float64(retained)/float64(links), float64(retained)/float64(docs), budget)
	if retained > budget {
		t.Errorf("a loaded, ranked worker retains %d bytes, budget %d (2 B/link + 8 B/doc + 6 B per listed link + %d B/site)",
			retained, budget, perSite)
	}
	runtime.KeepAlive(w)
	runtime.KeepAlive(sess)
	runtime.KeepAlive(dg)
}

// TestConcurrentRankOfSharedEntries: two sessions (two coordinators
// sharing the worker) hold the same cache entries and rank them at the
// same time, and every answer is bit for bit the serial one. An entry has
// no lock, since each rank sweeps a solver of its own over the shared,
// read-only chain; under the race detector (make race, race-multi) this
// is the test that shows it needs none.
func TestConcurrentRankOfSharedEntries(t *testing.T) {
	dg := webgen.Generate(webgen.Small()).Graph
	load := webLoad(t, dg)
	refs := make([]wire.ShardRef, len(load.Shards))
	for i := range load.Shards {
		refs[i] = wire.ShardRef{Site: load.Shards[i].Site, Digest: load.Shards[i].ContentDigest()}
	}
	w, a, b := New(), &session{}, &session{}
	if resp := w.handle(a, load); resp.Err != "" {
		t.Fatalf("load: %s", resp.Err)
	}
	if resp := w.handle(b, &wire.Request{Kind: wire.KindLoad, NumSites: load.NumSites, Cached: refs}); resp.Err != "" || len(resp.Missing) != 0 {
		t.Fatalf("declare by reference: err=%q missing=%v", resp.Err, resp.Missing)
	}
	for s, sh := range a.shards {
		if b.shards[s] == nil || b.shards[s].entry != sh.entry {
			t.Fatalf("site %d: the two sessions do not share one entry", s)
		}
	}
	rank := func(sess *session) []wire.LocalRank {
		resp := w.handle(sess, &wire.Request{Kind: wire.KindRankLocal, Damping: 0.8})
		if resp.Err != "" {
			t.Errorf("rank: %s", resp.Err)
		}
		return resp.Local
	}
	serial := rank(a)
	if len(serial) != dg.NumSites() {
		t.Fatalf("serial rank answered %d sites, want %d", len(serial), dg.NumSites())
	}
	const rounds = 20
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, sess := range []*session{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				if got := rank(sess); !sameBits(got, serial) {
					t.Errorf("round %d: a concurrent rank differs from the serial one", r)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// sameBits reports whether two RankLocal answers are equal to the bit.
func sameBits(a, b []wire.LocalRank) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Site != b[i].Site || a[i].Iterations != b[i].Iterations || len(a[i].Scores) != len(b[i].Scores) {
			return false
		}
		for k, v := range a[i].Scores {
			if math.Float64bits(v) != math.Float64bits(b[i].Scores[k]) {
				return false
			}
		}
	}
	return true
}
