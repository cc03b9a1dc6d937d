package graph_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lmmrank"
	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/webgen"
)

// irregularWeb is a seeded web with what a generator's output lacks:
// unmerged duplicate links, weights other than 1, a document with no
// out-links, an empty site and a site of one document.
func irregularWeb(seed int64) *graph.DocGraph {
	rng := rand.New(rand.NewSource(seed))
	dg := graph.BenchDocGraph(rng.Intn(5)+2, rng.Intn(8)+2, seed)
	nd := dg.NumDocs()
	for e := nd; e > 0; e-- {
		dg.G.AddEdge(rng.Intn(nd), rng.Intn(nd), float64(rng.Intn(3)+1)/2)
	}
	dg.Sites = append(dg.Sites, graph.Site{Name: "empty.example"}, graph.Site{Name: "single.example"})
	dg.AddDoc("http://single.example/", graph.SiteID(len(dg.Sites)-1))
	dg.G.AddLink(rng.Intn(nd), nd)
	return dg
}

func encode(t *testing.T, dg *graph.DocGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.EncodeBinary(&buf, dg); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	return buf.Bytes()
}

func decode(t *testing.T, file []byte) *graph.DocGraph {
	t.Helper()
	dg, err := graph.DecodeBinary(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	return dg
}

// TestBinaryRoundTripPins: through the graph file and back, a web is the
// same graph (the merged one, when the file held unmerged rows), a
// deduplicated web is the same bytes, on through the text format it is
// still the same graph, every URL and site name included, and the ranking
// over what came back is the ranking over what went in, bit for bit.
func TestBinaryRoundTripPins(t *testing.T) {
	webs := map[string]*graph.DocGraph{"webgen.Small": webgen.Generate(webgen.Small()).Graph}
	for seed := int64(1); seed <= 10; seed++ {
		webs[fmt.Sprintf("irregular-%d", seed)] = irregularWeb(seed)
	}
	for name, dg := range webs {
		t.Run(name, func(t *testing.T) {
			raw := encode(t, dg) // rows as stored: duplicates unmerged
			dg.G.Dedupe()
			graph.AssertSameDocGraph(t, dg, decode(t, raw))

			file := encode(t, dg)
			back := decode(t, file)
			graph.AssertSameDocGraph(t, dg, back)
			if again := encode(t, back); !bytes.Equal(again, file) {
				t.Errorf("re-encoding the decoded graph gives %d bytes that differ from the file's %d", len(again), len(file))
			}
			var text bytes.Buffer
			if err := graph.WriteText(&text, back); err != nil {
				t.Fatalf("WriteText of the decoded graph: %v", err)
			}
			fromText, err := graph.ReadText(&text)
			if err != nil {
				t.Fatalf("ReadText: %v", err)
			}
			graph.AssertSameDocGraph(t, dg, fromText)

			want, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{})
			if err != nil {
				t.Fatalf("LayeredDocRank: %v", err)
			}
			got, err := lmmrank.LayeredDocRank(back, lmmrank.WebConfig{})
			if err != nil {
				t.Fatalf("LayeredDocRank over the decoded graph: %v", err)
			}
			for d := range want.DocRank {
				if got.DocRank[d] != want.DocRank[d] {
					t.Fatalf("DocRank[%d] = %v over the decoded graph, %v over the original", d, got.DocRank[d], want.DocRank[d])
				}
			}
		})
	}
}

// TestDecodeBinaryAllocsDoNotGrowWithDocs: the decoder allocates per
// section, per site (its roster) and per arena chunk — never per document
// or link. The adjacency is row offsets and targets, with its listed
// links' positions and weights beside them, and the site column is read
// into the rosters and the run table: 43 mallocs measured for 738
// documents in 22 sites, and 43 to 46 (it varies run to run) for 5143.
func TestDecodeBinaryAllocsDoNotGrowWithDocs(t *testing.T) {
	small := webgen.Small()
	large := small
	large.MeanSitePages *= 8
	large.DynamicClusterPages *= 8
	large.DocClusterPages *= 8
	for name, cfg := range map[string]webgen.Config{"webgen.Small": small, "8x": large} {
		dg := webgen.Generate(cfg).Graph
		file := encode(t, dg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		back := decode(t, file)
		runtime.ReadMemStats(&after)
		if got, limit := after.Mallocs-before.Mallocs, uint64(32+back.NumSites()); got > limit {
			t.Errorf("%s: decoding %d docs in %d sites took %d mallocs, want at most %d",
				name, back.NumDocs(), back.NumSites(), got, limit)
		} else {
			t.Logf("%s: %d docs, %d sites, %d file bytes: %d mallocs", name, back.NumDocs(), back.NumSites(), len(file), got)
		}
	}
}

// TestDecodeBinaryRetention pins what a decoded web keeps alive, its text
// included: the packed adjacency at 2 bytes a link (its target's distance
// from its source — no 4-byte target, no 16-byte Edge, no weight column,
// no slack), 8 bytes (position and target) for each link farther than 2
// bytes reach, 12 bytes (position and weight) for each link of weight
// other than 1, and per document a 4-byte row offset, a roster entry, a
// share of the restart index and its front-coded URL — 27.0 bytes measured
// on the default web, the budget 30 — and 8 bytes a run of consecutive
// documents of one site. The second leg is a web of 75 273 documents, some
// of whose links reach farther than 2 bytes. One float64 more per link
// breaks it, and so does the 4-byte target column kept beside the narrow
// one (9.0 bytes a link all told while it was the only one), or a 4-byte
// column a document: the site column and the 8-byte row offsets made it
// 35.0 under a budget of 38.
func TestDecodeBinaryRetention(t *testing.T) {
	wide := webgen.Default()
	wide.MeanSitePages = 300
	for _, cfg := range []webgen.Config{webgen.Default(), wide} {
		file := encode(t, webgen.Generate(cfg).Graph)
		before := graph.LiveHeap()
		dg := decode(t, file)
		retained := int64(graph.LiveHeap()) - int64(before)
		links, docs, listed, far := dg.G.NumEdges(), dg.NumDocs(), 0, 0
		dg.G.EachEdgeAll(func(from int, e graph.Edge) {
			if e.Weight != 1 {
				listed++
			}
			if d := e.To - from; d > math.MaxInt16 || d < math.MinInt16 {
				far++
			}
		})
		if (docs > 1<<15) != (far > 0) {
			t.Fatalf("a web of %d documents has %d far links: the wrong leg", docs, far)
		}
		perLink := int64(2*links + 8*far + 12*listed)
		budget := perLink + int64(30*docs)
		t.Logf("%d docs, %d links (%d far, %d listed): the decoded graph retains %d bytes (%.1f per link all told; %.1f per document beside 2 per link, 8 per far link and 12 per listed link), budget %d",
			docs, links, far, listed, retained, float64(retained)/float64(links), float64(retained-perLink)/float64(docs), budget)
		if retained > budget {
			t.Errorf("a decoded graph of %d documents retains %d bytes, budget %d (2 B/link + 8 B per far link + 12 B per listed link + 30 B/doc)", docs, retained, budget)
		}
		runtime.KeepAlive(file)
		runtime.KeepAlive(dg)
	}
}

// TestTransitionMatrixRetention pins what a web's transition matrix keeps
// beside the web: each link as its source — 2 bytes on a web of at most
// matrix.MaxNarrowOrder documents (the default one, and every site's
// local graph), 4 above (a web of 75 273) — per document a column offset
// and its out-weight (6 bytes), and 6 bytes (position and weight) for
// each link of weight other than 1 — the links a crawl repeats; the
// out-weights and weights are link counts, 2 bytes each. The budget is
// that source width a link + 8 B/doc + 6 B per listed link (1.2 B/doc
// over them measured); one more 2-byte copy of the narrow sources breaks
// it, and so does a narrow web whose sources are stored 4 bytes wide, or
// whose out-weights or weights are float64 (12 B/doc and 12 B per listed
// link while they all were). Building the matrix allocates at most the
// budget + 8 B/doc of scratch, so the columns are written at their
// widths, not built at another and copied.
func TestTransitionMatrixRetention(t *testing.T) {
	wide := webgen.Default()
	wide.MeanSitePages = 300
	for _, leg := range []struct {
		cfg    webgen.Config
		source int
	}{{webgen.Default(), 2}, {wide, 4}} {
		g := webgen.Generate(leg.cfg).Graph.G
		g.Dedupe()
		links, docs, nonUnit := g.NumEdges(), g.NumNodes(), 0
		g.EachEdgeAll(func(_ int, e graph.Edge) {
			if e.Weight != 1 {
				nonUnit++
			}
		})
		if narrow := docs <= matrix.MaxNarrowOrder; narrow != (leg.source == 2) {
			t.Fatalf("a web of %d documents is the wrong leg for %d-byte sources", docs, leg.source)
		}
		before := graph.LiveHeap()
		var start, end runtime.MemStats
		runtime.ReadMemStats(&start)
		m := g.TransitionMatrix()
		runtime.ReadMemStats(&end)
		retained := int64(graph.LiveHeap()) - int64(before)
		built := int64(end.TotalAlloc - start.TotalAlloc)
		budget := int64(leg.source*links + 8*docs + 6*nonUnit)
		t.Logf("%d docs, %d links (%d of weight other than 1): the chain retains %d bytes (%.1f per link all told), budget %d; building it allocated %d",
			docs, links, nonUnit, retained, float64(retained)/float64(links), budget, built)
		if retained > budget {
			t.Errorf("a transition matrix of order %d retains %d bytes, budget %d (%d B/link + 8 B/doc + 6 B per non-unit link)",
				docs, retained, budget, leg.source)
		}
		// The build's scratch is two per-column counters, 8 B/doc: a
		// column of sources made at another width and copied is not.
		if limit := budget + int64(8*docs); built > limit {
			t.Errorf("building a transition matrix of order %d allocates %d bytes, limit %d (the budget + 8 B/doc of scratch)", docs, built, limit)
		}
		runtime.KeepAlive(m)
		runtime.KeepAlive(g)
	}
}

// TestCloneCOWRetention: a copy-on-write clone of a web and a one-row
// edit of it cost what was touched — the clone's Sites, one row — not a
// share of the web: under 64 KiB beside a parent of megabytes.
func TestCloneCOWRetention(t *testing.T) {
	dg := webgen.Generate(webgen.Default()).Graph
	before := graph.LiveHeap()
	work := dg.CloneCOW()
	work.G.AddLink(0, dg.NumDocs()-1)
	work.G.Dedupe()
	retained := int64(graph.LiveHeap()) - int64(before)
	t.Logf("%d docs, %d links: a clone with one row edited retains %d bytes beside its parent", dg.NumDocs(), dg.G.NumEdges(), retained)
	if retained > 64<<10 {
		t.Errorf("a clone with one row edited retains %d bytes beside its parent, want under %d", retained, 64<<10)
	}
	runtime.KeepAlive(work)
	runtime.KeepAlive(dg)
}

// TestBinaryFormatPins: the graph file's bytes are the ones every build
// since version 3 wrote, not merely what this build reads back — the
// SHA-256 of EncodeBinary's output, rows as stored and after Dedupe.
func TestBinaryFormatPins(t *testing.T) {
	for _, tc := range []struct {
		name           string
		dg             *graph.DocGraph
		stored, merged string
	}{
		{"webgen.Small", webgen.Generate(webgen.Small()).Graph,
			"8bca8a7237d51531dab6e7e2a7c72b88521dd7a8ee497450c5cfdd214df96137",
			"8bca8a7237d51531dab6e7e2a7c72b88521dd7a8ee497450c5cfdd214df96137"},
		{"irregular-1", irregularWeb(1),
			"0c3ec95edcc6129e253207158e185ca6e9285c1e89b2b1a3a0a48d631cf86317",
			"096464bda95a5b843050b80e49bc0500312a72c964ec1ed89a01862f29f0ab11"},
		{"irregular-2", irregularWeb(2),
			"643bf43397e2b1aa977e4c0092c98f14253e9f7996a0573ffc7b27e794eaa961",
			"8a19e6f6107c5acb4d22a8bcdf0d483fffd90fe2e6cb1f7d3fb28385c5af4d03"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(encode(t, tc.dg))); got != tc.stored {
			t.Errorf("%s as stored: file hashes to %s, want %s", tc.name, got, tc.stored)
		}
		tc.dg.G.Dedupe()
		if got := fmt.Sprintf("%x", sha256.Sum256(encode(t, tc.dg))); got != tc.merged {
			t.Errorf("%s deduplicated: file hashes to %s, want %s", tc.name, got, tc.merged)
		}
	}
}

// TestPortableBlocksMatchNative: the element-by-element path a
// big-endian host takes writes the same graph file, and reads it back
// the same graph, as the one-copy path of a little-endian host — over
// columns of many pieces, and rows as stored.
func TestPortableBlocksMatchNative(t *testing.T) {
	if !graph.NativeBlocks {
		t.Skip("the host is big-endian: the portable path is the only one")
	}
	webs := []*graph.DocGraph{webgen.Generate(webgen.Default()).Graph, irregularWeb(1)}
	native := make([][]byte, len(webs))
	for i, dg := range webs {
		native[i] = encode(t, dg)
	}
	graph.NativeBlocks = false
	defer func() { graph.NativeBlocks = true }()
	for i, dg := range webs {
		if file := encode(t, dg); !bytes.Equal(file, native[i]) {
			t.Fatalf("web %d: the portable path wrote other bytes", i)
		}
		dg.G.Dedupe()
		graph.AssertSameDocGraph(t, dg, decode(t, native[i]))
	}
}
