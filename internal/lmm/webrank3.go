package lmm

import (
	"fmt"
	"strings"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// This file applies the multi-layer extension (§2.2, implemented
// abstractly in hierarchy.go) at web scale: a three-layer
// domain → site → document ranking. The recursive Partition argument
// gives
//
//	DocRank(d) = DomainRank(dom) · SiteEntry(site | dom) · LocalRank(d)
//
// where SiteEntry is the gatekeeper entry distribution over a domain's
// sites: the PageRank of the domain-internal SiteGraph.

// DefaultDomainOf maps a site host to its registrable domain: the last
// two dot-separated labels ("dept003.campus2.example" → "campus2.example").
// Hosts with fewer labels map to themselves.
func DefaultDomainOf(siteName string) string {
	labels := strings.Split(siteName, ".")
	if len(labels) <= 2 {
		return siteName
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

// Web3Result is the outcome of the three-layer pipeline.
//
// LayeredDocRank3 returns it from a throwaway Ranker, so every field is
// safe to retain.
type Web3Result struct {
	// DocRank is the final composed ranking per DocID.
	DocRank matrix.Vector
	// Domains lists the distinct domain names in first-seen order.
	Domains []string
	// DomainRank holds the top-layer distribution per domain index.
	DomainRank matrix.Vector
	// DomainOfSite maps each SiteID to its domain index.
	DomainOfSite []int
	// SiteEntry holds each site's entry probability within its domain
	// (summing to 1 per domain).
	SiteEntry matrix.Vector
	// SiteWeights holds the per-site composition weights
	// DomainRank(dom(s))·SiteEntry(s) the DocRank was composed under.
	SiteWeights matrix.Vector
	// LocalRanks holds each site's local DocRank, as in WebResult.
	LocalRanks []matrix.Vector
	// LocalIterations counts each site's local sweeps, as in WebResult.
	LocalIterations []int
}

// ThreeLayerWeights is the upper two layers of the three-layer model,
// computed from the SiteGraph alone: the domain grouping, the domain
// PageRank, each site's entry distribution within its domain, and the
// per-site composition weights DomainRank(dom(s))·SiteEntry(s) that
// ComposeDocRank pairs with local DocRanks. All fields are freshly
// allocated — callers own them.
type ThreeLayerWeights struct {
	// Domains lists the distinct domain names in first-seen order.
	Domains []string
	// DomainRank holds the top-layer distribution per domain index.
	DomainRank matrix.Vector
	// DomainOfSite maps each SiteID to its domain index.
	DomainOfSite []int
	// SiteEntry holds each site's entry probability within its domain.
	SiteEntry matrix.Vector
	// SiteWeights holds DomainRank(dom(s))·SiteEntry(s) per SiteID — the
	// site weights of the Partition-Theorem composition.
	SiteWeights matrix.Vector
}

// ThreeLayerWeights computes the upper two layers of the three-layer
// model from this Ranker's precomputed SiteGraph. It builds only small,
// private domain-level graphs, never mutating shared structure, so
// Share()d rankers may call it concurrently. Its SiteWeights are the site
// weighting of a three-layer answer: composed with any local DocRanks —
// solved in-process, or on a worker fleet — they rank documents.
// domainOf nil selects DefaultDomainOf.
func (r *Ranker) ThreeLayerWeights(domainOf func(siteName string) string, cfg WebConfig) (*ThreeLayerWeights, error) {
	dg, sg := r.core.dg, r.core.sg
	if domainOf == nil {
		domainOf = DefaultDomainOf
	}

	// Group sites into domains.
	ns := dg.NumSites()
	domainIdx := make(map[string]int)
	var domains []string
	domainOfSite := make([]int, ns)
	var sitesOfDomain [][]graph.SiteID
	for s := 0; s < ns; s++ {
		name := domainOf(dg.Sites[s].Name)
		di, ok := domainIdx[name]
		if !ok {
			di = len(domains)
			domainIdx[name] = di
			domains = append(domains, name)
			sitesOfDomain = append(sitesOfDomain, nil)
		}
		domainOfSite[s] = di
		sitesOfDomain[di] = append(sitesOfDomain[di], graph.SiteID(s))
	}
	nd := len(domains)

	// Top layer: domain graph aggregated from site edges.
	domainGraph := graph.NewDigraph(nd)
	sg.G.EachEdgeAll(func(from int, e graph.Edge) {
		domainGraph.AddEdge(domainOfSite[from], domainOfSite[e.To], e.Weight)
	})
	domainGraph.Dedupe()
	pcfg := pagerank.Config{Damping: cfg.Damping, Tol: cfg.Tol, MaxIter: cfg.MaxIter, Ctx: cfg.Ctx}
	domRes, err := pagerank.Graph(domainGraph, pcfg)
	if err != nil {
		return nil, fmt.Errorf("lmm: layered3: domain layer: %w", err)
	}

	// Middle layer: per-domain internal site graphs → entry distributions.
	siteEntry := matrix.NewVector(ns)
	for di, sites := range sitesOfDomain {
		if len(sites) == 1 {
			siteEntry[sites[0]] = 1
			continue
		}
		local := make(map[graph.SiteID]int, len(sites))
		for i, s := range sites {
			local[s] = i
		}
		sub := graph.NewDigraph(len(sites))
		for i, s := range sites {
			sg.G.EachEdge(int(s), func(e graph.Edge) {
				if j, ok := local[graph.SiteID(e.To)]; ok {
					sub.AddEdge(i, j, e.Weight)
				}
			})
		}
		sub.Dedupe()
		res, err := pagerank.Graph(sub, pcfg)
		if err != nil {
			return nil, fmt.Errorf("lmm: layered3: domain %q site layer: %w", domains[di], err)
		}
		for i, s := range sites {
			siteEntry[s] = res.Scores[i]
		}
	}

	weights := matrix.NewVector(ns)
	for s := range weights {
		weights[s] = domRes.Scores[domainOfSite[s]] * siteEntry[s]
	}
	return &ThreeLayerWeights{
		Domains:      domains,
		DomainRank:   domRes.Scores,
		DomainOfSite: domainOfSite,
		SiteEntry:    siteEntry,
		SiteWeights:  weights,
	}, nil
}

// LayeredDocRank3 ranks documents with the three-layer model. domainOf
// groups sites into domains (nil = DefaultDomainOf). With a single domain
// the result reduces exactly to LayeredDocRank.
//
// It is the three-layer model's whole definition on a throwaway Ranker:
// ThreeLayerWeights, RankLocals, and ComposeDocRank of the two — so the
// returned Web3Result is safe to retain.
func LayeredDocRank3(dg *graph.DocGraph, domainOf func(siteName string) string, cfg WebConfig) (*Web3Result, error) {
	r, err := NewRanker(dg, RankerOptions{SiteGraph: cfg.SiteGraph})
	if err != nil {
		// NewRanker errors carry their own "lmm: ranker:" prefix.
		return nil, err
	}
	tl, err := r.ThreeLayerWeights(domainOf, cfg)
	if err != nil {
		return nil, err
	}
	locals, iters, err := r.RankLocals(cfg)
	if err != nil {
		return nil, fmt.Errorf("lmm: layered3: %w", err)
	}
	return &Web3Result{
		DocRank:         ComposeDocRank(dg, tl.SiteWeights, locals),
		Domains:         tl.Domains,
		DomainRank:      tl.DomainRank,
		DomainOfSite:    tl.DomainOfSite,
		SiteEntry:       tl.SiteEntry,
		SiteWeights:     tl.SiteWeights,
		LocalRanks:      locals,
		LocalIterations: iters,
	}, nil
}
