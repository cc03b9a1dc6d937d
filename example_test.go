package lmmrank_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"lmmrank"
	"lmmrank/internal/lmm"
)

// ExampleLayeredMethod reproduces the headline numbers of the paper's
// worked example: the Layered Method's score for global state (2,3).
func ExampleLayeredMethod() {
	model := lmmrank.PaperExample()
	ranking, err := lmmrank.LayeredMethod(model, lmmrank.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("π̃(2,3) = %.4f\n", ranking.Score(lmmrank.State{Phase: 1, Sub: 2}))
	top := ranking.Order()[0]
	fmt.Printf("top state = %v\n", top)
	// Output:
	// π̃(2,3) = 0.2541
	// top state = (2,3)
}

// ExamplePartitionGap verifies Corollary 1 on the paper's model: the
// decentralized Layered Method equals the centralized power method on W.
func ExamplePartitionGap() {
	gap, err := lmmrank.PartitionGap(lmmrank.PaperExample(), lmmrank.Config{Tol: 1e-12})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("gap below 1e-8: %v\n", gap < 1e-8)
	// Output:
	// gap below 1e-8: true
}

// ExampleLayeredDocRank ranks a two-site web and prints the SiteRank.
func ExampleLayeredDocRank() {
	b := lmmrank.NewGraphBuilder()
	b.AddLink("http://news.example/", "http://blog.example/")
	b.AddLink("http://blog.example/", "http://news.example/")
	b.AddLink("http://blog.example/post", "http://news.example/")
	b.AddLink("http://blog.example/", "http://blog.example/post")
	dg := b.Build()

	res, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for s, score := range res.SiteRank {
		fmt.Printf("%s %.2f\n", dg.Sites[s].Name, score)
	}
	// Output:
	// news.example 0.41
	// blog.example 0.59
}

// ExampleGraphBuilder shows site assignment by URL host.
func ExampleGraphBuilder() {
	b := lmmrank.NewGraphBuilder()
	b.AddLink("http://a.example/x", "http://b.example/y")
	dg := b.Build()
	fmt.Println("sites:", dg.NumSites(), "docs:", dg.NumDocs())
	fmt.Println("site of doc 0:", dg.Sites[dg.SiteOf(0)].Name)
	// Output:
	// sites: 2 docs: 2
	// site of doc 0: a.example
}

// servingWeb is the synthetic campus web the serving examples rank.
func servingWeb() *lmmrank.DocGraph {
	return lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed: 7, Sites: 40, MeanSitePages: 20,
		DynamicClusterPages: 200, DocClusterPages: 200,
	}).Graph
}

// ExampleLocalEngine serves the Engine API from one process: one engine,
// built once, answers site-personalized top-k queries from several
// goroutines at once — each result is the caller's own — then the
// three-layer model, and a context deadline cuts a query short.
func ExampleLocalEngine() {
	dg := servingWeb()
	eng, err := lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ctx := context.Background()
	answers := make([]*lmmrank.Result, 3)
	errs := make([]error, len(answers))
	var wg sync.WaitGroup
	for u := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pers := make(lmmrank.Vector, dg.NumSites())
			for i := range pers {
				pers[i] = 1
			}
			pers[u] = 20 // each user favors a different site
			pers.Normalize()
			answers[u], errs[u] = eng.Rank(ctx, lmmrank.Query{SitePersonalization: pers, TopK: 3})
		}()
	}
	wg.Wait()
	for u, res := range answers {
		if errs[u] != nil {
			fmt.Println("error:", errs[u])
			return
		}
		fmt.Printf("user %d top hit: %s (%.5f)\n", u, res.Top[0].URL, res.Top[0].Score)
	}

	res3, err := eng.Rank(ctx, lmmrank.Query{ThreeLayer: true, TopK: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("three-layer: %d domain, top hit %s\n", len(res3.Domains), res3.Top[0].URL)

	tight, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	<-tight.Done()
	_, err = eng.Rank(tight, lmmrank.Query{})
	fmt.Println("tight deadline:", err)
	// Output:
	// user 0 top hit: http://www.campus.example/ (0.10251)
	// user 1 top hit: http://dept001.campus.example/ (0.07820)
	// user 2 top hit: http://dept002.campus.example/ (0.06373)
	// three-layer: 1 domain, top hit http://www.campus.example/
	// tight deadline: context deadline exceeded
}

// ExampleDistEngine serves the same Query type from a worker fleet. The
// first Rank ships the site shards and has the workers solve every
// site's local DocRank; the snapshot keeps those solutions, so a later
// default-parameter Rank is composed from them and sends nothing — and
// it ranks exactly as a LocalEngine does.
func ExampleDistEngine() {
	dg := servingWeb()
	cl, err := lmmrank.StartCluster(3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer cl.Close()
	dist, err := lmmrank.NewDistEngine(cl, dg, lmmrank.DistConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	local, err := lmmrank.NewLocalEngine(dg, lmmrank.EngineOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ctx := context.Background()
	var res [2]*lmmrank.Result
	for i := range res {
		if res[i], err = dist.Rank(ctx, lmmrank.Query{TopK: 3}); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	ref, err := local.Rank(ctx, lmmrank.Query{TopK: 3})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("first Rank sent messages:", res[0].Dist.Messages > 0)
	fmt.Println("warm Rank sent messages:", res[1].Dist.Messages)
	fmt.Println("top hit:", res[1].Top[0].URL)
	fmt.Println("the LocalEngine's top hit too:", res[1].Top[0].Doc == ref.Top[0].Doc)
	// Output:
	// first Rank sent messages: true
	// warm Rank sent messages: 0
	// top hit: http://www.campus.example/
	// the LocalEngine's top hit too: true
}

// ExampleStartCluster runs the paper's peer-to-peer vision on one
// machine: four worker peers on loopback TCP each host a share of the
// campus web's sites and compute their local DocRanks, which the
// coordinator hands back; composed under the SiteRank, solved on the
// caller's own Ranker, they are the global ranking by the Partition
// Theorem. A second run declares the
// shards by digest against the workers' caches, and a run after a worker
// died reassigns its shards to the survivors.
func ExampleStartCluster() {
	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed: 7, Sites: 60, MeanSitePages: 30,
		DynamicClusterPages: 500, DocClusterPages: 500,
	})
	cl, err := lmmrank.StartCluster(4)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer cl.Close()
	rk, err := lmmrank.NewRanker(web.Graph, lmmrank.RankerOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ref, err := lmmrank.LayeredDocRank(web.Graph, lmmrank.WebConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The small site layer is solved here; RankSites answers in rk's
	// scratch, which a run leaves alone.
	site, _, err := rk.RankSites(lmmrank.WebConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ctx := context.Background()
	cfg := lmmrank.DistConfig{Retry: lmmrank.DistRetryPolicy{MaxWorkerFailures: 1}}
	// Each run hands the next the shard digests it computed.
	var known lmmrank.DistWarm
	var gap float64
	for run := 1; run <= 3; run++ {
		if run == 3 {
			if err := cl.Kill(len(cl.Workers) - 1); err != nil {
				fmt.Println("error:", err)
				return
			}
		}
		res, err := cl.Coord.RankPreparedCtx(ctx, rk, cfg, known)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		known.Digests = res.Digests
		gap = max(gap, lmm.ComposeDocRank(web.Graph, site, res.LocalRanks).L1Diff(ref.DocRank))
		switch run {
		case 2:
			fmt.Println("second run, shards re-shipped:", res.Stats.ShardsReshipped)
		case 3:
			fmt.Println("after a kill, workers lost:", res.Stats.WorkersLost)
		}
	}
	fmt.Println("every run within 1e-9 of the single-process ranking:", gap < 1e-9)
	// Output:
	// second run, shards re-shipped: 0
	// after a kill, workers lost: 1
	// every run within 1e-9 of the single-process ranking: true
}

// ExampleLocalEngine_Update serves a synthetic campus web, changes one
// site through Engine.Update and ranks again. Update applies the edit to
// a copy-on-write clone, rebuilds only the listed site's structure and
// publishes the new graph atomically; queries in flight finish on the
// graph they started on, and the next Rank sees the edit.
func ExampleLocalEngine_Update() {
	ctx := context.Background()
	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed: 2003, Sites: 20, MeanSitePages: 15,
		DynamicClusterPages: 100, DocClusterPages: 100,
	})
	eng, err := lmmrank.NewLocalEngine(web.Graph, lmmrank.EngineOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	before, err := eng.Rank(ctx, lmmrank.Query{TopK: 3})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, e := range before.Top {
		fmt.Printf("%.4f %s\n", e.Score, e.URL)
	}

	// Every page of site 5 starts linking to the site's last page.
	const site lmmrank.SiteID = 5
	docs := web.Graph.Sites[site].Docs
	target := docs[len(docs)-1]
	err = eng.Update(ctx, lmmrank.GraphDelta{
		Apply: func(dg *lmmrank.DocGraph) error {
			for _, d := range docs[:len(docs)-1] {
				dg.G.AddLink(int(d), int(target))
			}
			return nil
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	after, err := eng.Rank(ctx, lmmrank.Query{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("edited:", eng.DocGraph().URL(target))
	fmt.Printf("its score: %.6f -> %.6f\n", before.DocRank[target], after.DocRank[target])
	// Output:
	// 0.0514 http://www.campus.example/
	// 0.0143 http://dept017.campus.example/
	// 0.0136 http://dept011.campus.example/
	// edited: http://dept005.campus.example/page25.html
	// its score: 0.001036 -> 0.005125
}

// Example builds a tiny two-site web, ranks it with the Layered Method
// and with the flat PageRank baseline, and prints both top lists.
func Example() {
	// A miniature web: site "news" hosts three pages, site "blog" two;
	// the blog links the news home twice, news links back once.
	b := lmmrank.NewGraphBuilder()
	b.AddLink("http://news.example/", "http://news.example/world")
	b.AddLink("http://news.example/", "http://news.example/sport")
	b.AddLink("http://news.example/world", "http://news.example/")
	b.AddLink("http://news.example/sport", "http://news.example/")
	b.AddLink("http://blog.example/", "http://blog.example/post-1")
	b.AddLink("http://blog.example/post-1", "http://news.example/")
	b.AddLink("http://blog.example/", "http://news.example/")
	b.AddLink("http://news.example/world", "http://blog.example/")
	dg := b.Build()

	// The paper's Layered Method: SiteRank × independent local DocRanks.
	layered, err := lmmrank.LayeredDocRank(dg, lmmrank.WebConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("Layered Method (SiteRank × local DocRank):")
	for _, e := range lmmrank.TopDocs(dg, layered.DocRank, 5) {
		fmt.Printf("  %.4f  %s\n", e.Score, e.URL)
	}
	fmt.Println("SiteRank:")
	for s, score := range layered.SiteRank {
		fmt.Printf("  %.4f  %s\n", score, dg.Sites[s].Name)
	}

	// Flat PageRank for comparison.
	flat, err := lmmrank.PageRank(dg, lmmrank.WebConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("flat PageRank baseline:")
	for _, e := range lmmrank.TopDocs(dg, flat, 5) {
		fmt.Printf("  %.4f  %s\n", e.Score, e.URL)
	}
	fmt.Printf("agreement: Kendall τ = %.3f\n", lmmrank.KendallTau(layered.DocRank, flat))
	// Output:
	// Layered Method (SiteRank × local DocRank):
	//   0.3521  http://news.example/
	//   0.1858  http://news.example/world
	//   0.1858  http://news.example/sport
	//   0.1794  http://blog.example/post-1
	//   0.0970  http://blog.example/
	// SiteRank:
	//   0.7237  news.example
	//   0.2763  blog.example
	// flat PageRank baseline:
	//   0.4029  http://news.example/
	//   0.2012  http://news.example/world
	//   0.2012  http://news.example/sport
	//   0.1155  http://blog.example/
	//   0.0791  http://blog.example/post-1
	// agreement: Kendall τ = 0.778
}

// ExampleComputeAll reproduces the worked example of the paper's §2.3:
// the 12-state Layered Markov Model, its local and phase-layer vectors,
// Figure 2's direct power method on W beside the Layered Method computed
// without W, and the Partition Theorem equality (Corollary 1) between
// the two.
func ExampleComputeAll() {
	model := lmmrank.PaperExample()
	all, err := lmmrank.ComputeAll(model, lmmrank.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("local PageRank vectors π^I_G (§2.3.2):")
	for i, v := range all.Local {
		fmt.Printf("  phase %d: %.4f\n", i+1, []float64(v))
	}
	fmt.Printf("phase layer: πY = %.4f, π̃Y = %.4f\n", []float64(all.PiY), []float64(all.PiYTilde))
	fmt.Println("Figure 2 — Approach 2 (π̃W, direct power method on W):")
	fmt.Print(all.A2)
	fmt.Println("Approach 4, the Layered Method (π̃Y ⊗ π^I_G) — computed without W:")
	fmt.Print(all.A4)

	gap, err := lmmrank.PartitionGap(model, lmmrank.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("Partition Theorem: ‖Approach2 − Approach4‖₁ below 1e-6:", gap < 1e-6)
	top := all.A4.Order()[:3]
	fmt.Printf("top three global states: %v %v %v (paper: (2,3), (3,1), (2,2))\n", top[0], top[1], top[2])
	// Output:
	// local PageRank vectors π^I_G (§2.3.2):
	//   phase 1: [0.3054 0.2312 0.2582 0.2052]
	//   phase 2: [0.1191 0.2691 0.6117]
	//   phase 3: [0.4557 0.1038 0.2014 0.1106 0.1285]
	// phase layer: πY = [0.2315 0.4015 0.3670], π̃Y = [0.2154 0.4154 0.3692]
	// Figure 2 — Approach 2 (π̃W, direct power method on W):
	//  1 : (1,1)   0.0658   5
	//  2 : (1,2)   0.0498   7
	//  3 : (1,3)   0.0556   6
	//  4 : (1,4)   0.0442  10
	//  5 : (2,1)   0.0495   8
	//  6 : (2,2)   0.1118   3
	//  7 : (2,3)   0.2541   1
	//  8 : (3,1)   0.1683   2
	//  9 : (3,2)   0.0383  12
	// 10 : (3,3)   0.0744   4
	// 11 : (3,4)   0.0408  11
	// 12 : (3,5)   0.0474   9
	// Approach 4, the Layered Method (π̃Y ⊗ π^I_G) — computed without W:
	//  1 : (1,1)   0.0658   5
	//  2 : (1,2)   0.0498   7
	//  3 : (1,3)   0.0556   6
	//  4 : (1,4)   0.0442  10
	//  5 : (2,1)   0.0495   8
	//  6 : (2,2)   0.1118   3
	//  7 : (2,3)   0.2541   1
	//  8 : (3,1)   0.1683   2
	//  9 : (3,2)   0.0383  12
	// 10 : (3,3)   0.0744   4
	// 11 : (3,4)   0.0408  11
	// 12 : (3,5)   0.0474   9
	// Partition Theorem: ‖Approach2 − Approach4‖₁ below 1e-6: true
	// top three global states: (2,3) (3,1) (2,2) (paper: (2,3), (3,1), (2,2))
}

// ExampleLayeredDocRank3 applies the multi-layer extension (§2.2) at web
// scale: three federated campuses, each its own domain, ranked with the
// three-layer domain → site → page model, which composes DomainRank ×
// site entry × local DocRank — and, beside it, the two-layer ranking of
// the same web.
func ExampleLayeredDocRank3() {
	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed: 11, Sites: 25, MeanSitePages: 15, Campuses: 3,
		DynamicClusterPages: 200, DocClusterPages: 200,
	})
	fmt.Printf("federated web: %d sites, %d documents\n", web.Graph.NumSites(), web.Graph.NumDocs())

	three, err := lmmrank.LayeredDocRank3(web.Graph, nil, lmmrank.WebConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("domain layer (top of the hierarchy):")
	order := make([]int, len(three.Domains))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return three.DomainRank[order[a]] > three.DomainRank[order[b]] })
	for _, i := range order {
		fmt.Printf("  %.4f  %s\n", three.DomainRank[i], three.Domains[i])
	}
	fmt.Println("top 5 documents (three-layer composition):")
	for i, e := range lmmrank.TopDocs(web.Graph, three.DocRank, 5) {
		fmt.Printf("  %d %.6f %s\n", i+1, e.Score, e.URL)
	}

	two, err := lmmrank.LayeredDocRank(web.Graph, lmmrank.WebConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("τ(two-layer, three-layer) = %.3f\n", lmmrank.KendallTau(two.DocRank, three.DocRank))
	// Output:
	// federated web: 77 sites, 1870 documents
	// domain layer (top of the hierarchy):
	//   0.3595  campus.example
	//   0.3283  campus2.example
	//   0.3123  campus3.example
	// top 5 documents (three-layer composition):
	//   1 0.020000 http://www.campus.example/
	//   2 0.015994 http://www.campus3.example/
	//   3 0.014815 http://www.campus2.example/
	//   4 0.004308 http://dept015.campus.example/
	//   5 0.004045 http://dept021.campus.example/
	// τ(two-layer, three-layer) = 0.975
}

// ExampleLayeredDocRank_personalization personalizes at both layers, as
// §3.2 describes: biasing the site-layer teleport promotes a whole site,
// biasing one site's document-layer teleport promotes pages within it,
// and the two compose.
func ExampleLayeredDocRank_personalization() {
	dg := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{
		Seed: 42, Sites: 30, MeanSitePages: 20,
		DynamicClusterPages: 200, DocClusterPages: 200,
	}).Graph

	// Focus: an ordinary page on an ordinary departmental site.
	focusSite := lmmrank.SiteID(12)
	focusDoc := dg.Sites[focusSite].Docs[1]
	fmt.Println("focus page:", dg.URL(focusDoc))

	// Upper layer: teleport 60% of site-layer jumps to the focus site.
	sitePers := make(lmmrank.Vector, dg.NumSites())
	for i := range sitePers {
		sitePers[i] = 0.4 / float64(len(sitePers)-1)
	}
	sitePers[focusSite] = 0.6
	// Lower layer: inside the focus site, teleport 60% to the focus page.
	docPers := make(lmmrank.Vector, dg.SiteSize(focusSite))
	for i, d := range dg.Sites[focusSite].Docs {
		docPers[i] = 0.4 / float64(len(docPers)-1)
		if d == focusDoc {
			docPers[i] = 0.6
		}
	}
	docBias := map[lmmrank.SiteID]lmmrank.Vector{focusSite: docPers}

	for _, v := range []struct {
		name string
		cfg  lmmrank.WebConfig
	}{
		{"uniform", lmmrank.WebConfig{}},
		{"site layer biased", lmmrank.WebConfig{SitePersonalization: sitePers}},
		{"doc layer biased", lmmrank.WebConfig{DocPersonalization: docBias}},
		{"both layers biased", lmmrank.WebConfig{SitePersonalization: sitePers, DocPersonalization: docBias}},
	} {
		res, err := lmmrank.LayeredDocRank(dg, v.cfg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rank := 1
		for d, x := range res.DocRank {
			if x > res.DocRank[focusDoc] || x == res.DocRank[focusDoc] && lmmrank.DocID(d) < focusDoc {
				rank++
			}
		}
		fmt.Printf("%-18s score %.6f, global rank %d\n", v.name, res.DocRank[focusDoc], rank)
	}
	// Output:
	// focus page: http://dept012.campus.example/page1.html
	// uniform            score 0.002097, global rank 98
	// site layer biased  score 0.039382, global rank 7
	// doc layer biased   score 0.004129, global rank 31
	// both layers biased score 0.077539, global rank 2
}
