package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lmmrank"
	"lmmrank/internal/graph"
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
	dg.Sites = append(dg.Sites,
		graph.Site{Name: "empty.example"},
		graph.Site{Name: "single.example", Docs: []graph.DocID{graph.DocID(nd)}})
	dg.Docs = append(dg.Docs, graph.Doc{URL: "http://single.example/", Site: graph.SiteID(len(dg.Sites) - 1)})
	dg.G.EnsureNodes(nd + 1)
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
// deduplicated web is the same bytes, and the ranking over what came
// back is the ranking over what went in, bit for bit.
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
// or link. The adjacency is three columns: 41 and 46 mallocs measured
// for 738 and 5143 documents in 22 sites.
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

// TestDecodeBinaryRetention pins what a decoded web keeps alive beside
// the bytes of its URLs and site names: the packed adjacency at 12 bytes
// a link (a uint32 target and a float64 weight — no 16-byte Edge, no
// slack), and per document a Doc, a row offset and a roster entry (40
// bytes; the budget leaves 8 for the sites and the allocator).
func TestDecodeBinaryRetention(t *testing.T) {
	file := encode(t, webgen.Generate(webgen.Default()).Graph)
	before := graph.LiveHeap()
	dg := decode(t, file)
	retained := int64(graph.LiveHeap()) - int64(before)
	for _, doc := range dg.Docs {
		retained -= int64(len(doc.URL))
	}
	for _, site := range dg.Sites {
		retained -= int64(len(site.Name))
	}
	links, docs := dg.G.NumEdges(), dg.NumDocs()
	budget := int64(12*links + 48*docs)
	t.Logf("%d docs, %d links: the decoded graph retains %d bytes beside its text (%.1f per link all told), budget %d",
		docs, links, retained, float64(retained)/float64(links), budget)
	if retained > budget {
		t.Errorf("a decoded graph retains %d bytes beside its text, budget %d (12 B/link + 48 B/doc)", retained, budget)
	}
	runtime.KeepAlive(file)
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
