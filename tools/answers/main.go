// Command answers prints FNV-64a hashes over the answers the ranking
// engines give on fixed synthetic webs, one line per hash, so that a
// change that must leave every answer as it was can show it did:
//
//	make answers PARENT=<rev>
//
// builds this program in the working tree and in <rev>'s and prints the
// two sets of hashes side by side. A hash covers every float bit of the
// answers it names, so any change to any score changes it.
//
// "layered" hashes LayeredDocRank's DocRank and TopDocs(…, 50) — documents,
// URLs and scores — on webgen's Small web (seed 7), its Default web, a
// blocky Small web (seed 11) and the Small web read back through the text
// format. "web-mid" hashes the graph file of lmmload's web-mid (seed 2005,
// 113 644 documents, some of whose links reach farther than a 2-byte
// distance), and LayeredDocRank's DocRank and TopDocs(…, 50) over the web
// read back from that file. The "central-" lines hash one answer each of
// a 4-worker DistEngine on the Small web — its Top table, vectors and
// local ranks: a cold Rank, a warm one, a Tol=1e-4 one, a Damping 0.8
// one, a site-personalized one, a ThreeLayer one, a ThreeLayer Tol=1e-4
// one ("three-tol", a run of its own), a WantLocalRanks one, a TopK 50
// one, the first Rank after a one-site Update ("edited"), and a TopK 50
// one after it ("top50-edited"), whose Top table an engine may take from
// a top-k index the Update's fill patched. "central-tol" and
// "central-damping" hash fleet non-default answers: a fleet run of their
// own for the local ranks, and a site layer solved from the filled
// snapshot's πS. "local" hashes a
// plain LocalEngine's answers before any Update at Parallelism 1 and at 0
// on the Small web: a uniform query's DocRank, SiteRank, LocalRanks and
// Top table of 50, and a ThreeLayer query's DocRank, SiteRank, DomainRank
// and SiteEntry — the answers a snapshot composes from the solutions its
// construction solved, which must equal what a cold solve gives. The
// other "local-" lines but the last hash, one query each, what a plain
// LocalEngine solves rather than serves from its snapshot — a Damping 0.8
// query, a ThreeLayer one at Damping 0.8, a DocPersonalization one and a
// site-personalized one at Damping 0.8 — with their Top table of 50,
// local ranks and sweep counts, at Parallelism 1 and at 0. "local-topk"
// hashes the Top tables (documents, URLs and scores), DocRank and SiteRank
// of a TopKIndex LocalEngine at Parallelism 1 and at 0 on the Small web: a
// uniform and a site-personalized TopK query, two identical ones issued at
// once to a coalescing engine, and the first after a one-site Update; and,
// with their LocalRanks, a query that solves the sites (Damping 0.8),
// before the Update and after it — the engine builds the chains it solves
// on late, for that query. "local-top50-edited" hashes the Top tables
// (documents, URLs and scores), DocRank and SiteRank of a LocalEngine
// built without TopKIndex, at Parallelism 1 and at 0 on the Small web: a
// uniform TopK 50 query, then, after a one-site Update, a uniform and a
// site-personalized one.
package main

import (
	"bytes"
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sync"

	"lmmrank"
	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

func main() {
	layered, err := layeredHash()
	if err != nil {
		fail(err)
	}
	fmt.Printf("layered      %016x\n", layered)
	mid, err := webMidHash()
	if err != nil {
		fail(err)
	}
	fmt.Printf("web-mid      %016x\n", mid)
	if err := distHashes(); err != nil {
		fail(err)
	}
	local, err := localHash()
	if err != nil {
		fail(err)
	}
	fmt.Printf("local        %016x\n", local)
	if err := localSolvedHashes(); err != nil {
		fail(err)
	}
	topk, err := localTopKHash()
	if err != nil {
		fail(err)
	}
	fmt.Printf("local-topk   %016x\n", topk)
	edited, err := localEditedHash()
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-16s %016x\n", "local-top50-edited", edited)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "answers:", err)
	os.Exit(1)
}

// writeFloats feeds every float's bits to h.
func writeFloats(h hash.Hash64, v []float64) {
	var b [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
}

func small(seed int64) webgen.Config {
	cfg := webgen.Small()
	cfg.Seed = seed
	return cfg
}

func layeredHash() (uint64, error) {
	blocky := small(11)
	blocky.Blocky = true
	webs := []*graph.DocGraph{
		webgen.Generate(small(7)).Graph,
		webgen.Generate(webgen.Default()).Graph,
		webgen.Generate(blocky).Graph,
	}
	var text bytes.Buffer
	if err := graph.WriteText(&text, webgen.Generate(small(7)).Graph); err != nil {
		return 0, err
	}
	read, err := graph.ReadText(&text)
	if err != nil {
		return 0, err
	}
	webs = append(webs, read)

	h := fnv.New64a()
	for _, dg := range webs {
		res, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{})
		if err != nil {
			return 0, err
		}
		writeFloats(h, res.DocRank)
		for _, d := range lmmrank.TopDocs(dg, res.DocRank, 50) {
			fmt.Fprintf(h, "%d %s ", d.Doc, d.URL)
			writeFloats(h, []float64{d.Score})
		}
	}
	return h.Sum64(), nil
}

// webMidHash hashes the graph file of lmmload's web-mid and the layered
// ranking of the web decoded from it.
func webMidHash() (uint64, error) {
	cfg := webgen.Config{Seed: 2005, Sites: 218, MeanSitePages: 400, DynamicClusterPages: 10000, DocClusterPages: 10000}
	var file bytes.Buffer
	if err := graph.EncodeBinary(&file, webgen.Generate(cfg).Graph); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(file.Bytes())
	dg, err := graph.DecodeBinary(&file)
	if err != nil {
		return 0, err
	}
	res, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{})
	if err != nil {
		return 0, err
	}
	writeFloats(h, res.DocRank)
	for _, d := range lmmrank.TopDocs(dg, res.DocRank, 50) {
		fmt.Fprintf(h, "%d %s ", d.Doc, d.URL)
		writeFloats(h, []float64{d.Score})
	}
	return h.Sum64(), nil
}

// personalized is a site-layer teleport vector leaning on the later
// sites, the one every personalized query here asks for.
func personalized(ns int) lmmrank.Vector {
	v := make(lmmrank.Vector, ns)
	for s := range v {
		v[s] = float64(s+1) / float64(ns*(ns+1)/2)
	}
	return v
}

// editOneSite adds two links inside the first site of at least three
// documents: a one-site Update.
func editOneSite(ctx context.Context, eng lmmrank.Engine, dg *lmmrank.DocGraph) error {
	site := lmmrank.SiteID(0)
	for len(dg.Sites[site].Docs) < 3 {
		site++
	}
	return eng.Update(ctx, lmmrank.GraphDelta{
		ChangedSites: []lmmrank.SiteID{site},
		Apply: func(dg *lmmrank.DocGraph) error {
			docs := dg.Sites[site].Docs
			dg.G.AddLink(int(docs[0]), int(docs[2]))
			dg.G.AddLink(int(docs[2]), int(docs[1]))
			return nil
		},
	})
}

// writeResult feeds an answer's Top table, its vectors and its local
// ranks to h.
func writeResult(h hash.Hash64, res *lmmrank.Result) {
	for _, d := range res.Top {
		fmt.Fprintf(h, "%d %s ", d.Doc, d.URL)
		writeFloats(h, []float64{d.Score})
	}
	writeFloats(h, res.DocRank)
	writeFloats(h, res.SiteRank)
	writeFloats(h, res.DomainRank)
	writeFloats(h, res.SiteEntry)
	for _, v := range res.LocalRanks {
		writeFloats(h, v)
	}
}

func localHash() (uint64, error) {
	ctx := context.Background()
	h := fnv.New64a()
	for _, par := range []int{1, 0} {
		eng, err := lmmrank.NewLocalEngine(webgen.Generate(small(7)).Graph, lmmrank.EngineOptions{Parallelism: par})
		if err != nil {
			return 0, err
		}
		for _, q := range []lmmrank.Query{{TopK: 50, WantLocalRanks: true}, {ThreeLayer: true}} {
			res, err := eng.Rank(ctx, q)
			if err != nil {
				return 0, err
			}
			writeResult(h, res)
		}
	}
	return h.Sum64(), nil
}

// localSolvedHashes prints one hash per query a plain LocalEngine answers
// by solving every site (or, for a SitePersonalization, the site layer
// too) rather than from its snapshot, at Parallelism 1 and at 0 on the
// Small web: each answer's Top table of 50, vectors, local ranks and
// sweep counts.
func localSolvedHashes() error {
	ctx := context.Background()
	dg := webgen.Generate(small(7)).Graph
	site := lmmrank.SiteID(0)
	for len(dg.Sites[site].Docs) < 3 {
		site++
	}
	for _, nq := range []struct {
		what string
		q    lmmrank.Query
	}{
		{"damping", lmmrank.Query{Damping: 0.8}},
		{"three-damping", lmmrank.Query{ThreeLayer: true, Damping: 0.8}},
		{"doc-personal", lmmrank.Query{DocPersonalization: map[lmmrank.SiteID]lmmrank.Vector{site: personalized(len(dg.Sites[site].Docs))}}},
		{"personal-damping", lmmrank.Query{SitePersonalization: personalized(dg.NumSites()), Damping: 0.8}},
	} {
		h := fnv.New64a()
		for _, par := range []int{1, 0} {
			eng, err := lmmrank.NewLocalEngine(webgen.Generate(small(7)).Graph, lmmrank.EngineOptions{Parallelism: par})
			if err != nil {
				return err
			}
			q := nq.q
			q.TopK, q.WantLocalRanks = 50, true
			res, err := eng.Rank(ctx, q)
			if err != nil {
				return err
			}
			writeResult(h, res)
			fmt.Fprintf(h, "%d %v ", res.SiteIterations, res.LocalIterations)
		}
		fmt.Printf("%-16s %016x\n", "local-"+nq.what, h.Sum64())
	}
	return nil
}

func localTopKHash() (uint64, error) {
	ctx := context.Background()
	h := fnv.New64a()
	write := func(res *lmmrank.Result) { writeResult(h, res) }
	for _, par := range []int{1, 0} {
		dg := webgen.Generate(small(7)).Graph
		eng, err := lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{Parallelism: par, TopKIndex: true, Coalesce: true})
		if err != nil {
			return 0, err
		}
		uniform := lmmrank.Query{TopK: 50}
		personal := lmmrank.Query{TopK: 50, SitePersonalization: personalized(dg.NumSites())}
		solved := lmmrank.Query{TopK: 50, Damping: 0.8, WantLocalRanks: true}
		for _, q := range []lmmrank.Query{uniform, personal, solved} {
			res, err := eng.Rank(ctx, q)
			if err != nil {
				return 0, err
			}
			write(res)
		}
		var pair [2]*lmmrank.Result
		var errs [2]error
		var wg sync.WaitGroup
		for i := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pair[i], errs[i] = eng.Rank(ctx, personal)
			}()
		}
		wg.Wait()
		for i, res := range pair {
			if errs[i] != nil {
				return 0, errs[i]
			}
			write(res)
		}
		if err := editOneSite(ctx, eng, dg); err != nil {
			return 0, err
		}
		for _, q := range []lmmrank.Query{uniform, solved} {
			res, err := eng.Rank(ctx, q)
			if err != nil {
				return 0, err
			}
			write(res)
		}
	}
	return h.Sum64(), nil
}

// localEditedHash hashes the TopK 50 answers of a LocalEngine built
// without TopKIndex, before and after a one-site Update.
func localEditedHash() (uint64, error) {
	ctx := context.Background()
	h := fnv.New64a()
	for _, par := range []int{1, 0} {
		dg := webgen.Generate(small(7)).Graph
		eng, err := lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{Parallelism: par})
		if err != nil {
			return 0, err
		}
		uniform := lmmrank.Query{TopK: 50}
		personal := lmmrank.Query{TopK: 50, SitePersonalization: personalized(dg.NumSites())}
		res, err := eng.Rank(ctx, uniform)
		if err != nil {
			return 0, err
		}
		writeResult(h, res)
		if err := editOneSite(ctx, eng, dg); err != nil {
			return 0, err
		}
		for _, q := range []lmmrank.Query{uniform, personal} {
			if res, err = eng.Rank(ctx, q); err != nil {
				return 0, err
			}
			writeResult(h, res)
		}
	}
	return h.Sum64(), nil
}

// distHashes prints one hash per answer of a 4-worker DistEngine on the
// Small web, each line named after the query.
func distHashes() error {
	ctx := context.Background()
	dg := webgen.Generate(small(7)).Graph
	cl, err := lmmrank.StartCluster(4)
	if err != nil {
		return err
	}
	defer cl.Close()
	eng, err := lmmrank.NewDistEngine(cl, dg, lmmrank.DistConfig{})
	if err != nil {
		return err
	}
	rank := func(what string, q lmmrank.Query) error {
		res, err := eng.Rank(ctx, q)
		if err != nil {
			return err
		}
		h := fnv.New64a()
		writeResult(h, res)
		fmt.Printf("%-16s %016x\n", "central-"+what, h.Sum64())
		return nil
	}
	for _, nq := range []struct {
		what string
		q    lmmrank.Query
	}{
		{"cold", lmmrank.Query{}},
		{"warm", lmmrank.Query{}},
		{"tol", lmmrank.Query{Tol: 1e-4}},
		{"damping", lmmrank.Query{Damping: 0.8}},
		{"personal", lmmrank.Query{SitePersonalization: personalized(dg.NumSites())}},
		{"three", lmmrank.Query{ThreeLayer: true}},
		{"three-tol", lmmrank.Query{ThreeLayer: true, Tol: 1e-4}},
		{"locals", lmmrank.Query{WantLocalRanks: true}},
		{"top50", lmmrank.Query{TopK: 50}},
	} {
		if err := rank(nq.what, nq.q); err != nil {
			return err
		}
	}
	if err := editOneSite(ctx, eng, dg); err != nil {
		return err
	}
	if err := rank("edited", lmmrank.Query{}); err != nil {
		return err
	}
	return rank("top50-edited", lmmrank.Query{TopK: 50})
}
