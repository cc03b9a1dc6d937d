package lmm

import (
	"errors"
	"fmt"

	"lmmrank/internal/graph"
)

// ErrStaleResult is returned (wrapped) when an incremental rebuild cannot
// reuse the previous structure: the graph has fewer sites than the
// Ranker. Fall back to a cold NewRanker.
var ErrStaleResult = errors.New("lmm: previous result is stale")

// RebuildOn returns a Ranker over dg, a DocGraph.CloneCOW of this
// Ranker's graph with a delta applied, rebuilding only the sites the
// clone wrote — the structural half of the churn path. The old Ranker's
// graph never mutates, so it keeps serving straggler queries while the
// new Ranker is built off to the side.
//
// The sites rebuilt are dg.ChangedSince(the Ranker's graph): by the
// Partition Theorem a site's local DocRank depends only on its own
// documents and links, so every other site's roster index, kept chain
// and SiteGraph row are exactly valid, and the new core shares them by
// pointer. A site listed in changed, which must be a site of dg, is
// rebuilt as well: the list only adds to the derived set. The changed
// and appended sites get fresh indexes and
// SiteGraph rows now, and a chain kept only once Prepare or a Rank needs
// one (a RankRefresh solves the site on a chain it does not keep); the
// site-layer chain is derived over the new SiteGraph. dg is checked with
// ValidateSince over the sites rebuilt, not walked whole. A rankerSite
// holds no reference to the graph it came from; a clean site's chain not
// yet kept is built from whichever core's graph asks, and the site's rows
// are the same in both. Like CloneCOW on the graph, the sharing writes
// nothing of the old core or its SiteGraph: readers are never disturbed,
// and rebuilds from one core do not disturb each other. The returned
// Ranker has fresh private scratch; call Prepare (or serve a warm-up
// query) before fanning Share()d copies out.
//
// A Ranker whose own graph mutated in place since it was built
// (ErrGraphMutated) cannot say what changed and is refused; build a new
// one with NewRanker.
func (r *Ranker) RebuildOn(dg *graph.DocGraph, changed []graph.SiteID) (*Ranker, error) {
	old := r.core
	if r.Stale() {
		return nil, ErrGraphMutated
	}
	ns := dg.NumSites()
	if ns < len(old.sites) {
		return nil, fmt.Errorf("%w: graph has %d sites, ranker %d (sites removed?)",
			ErrStaleResult, ns, len(old.sites))
	}
	sites := append(dg.ChangedSince(old.dg), changed...)
	if err := dg.ValidateSince(old.dg, sites); err != nil {
		return nil, fmt.Errorf("lmm: rebuild: %w", err)
	}
	dg.Dedupe()
	core := &rankerCore{
		dg:      dg,
		opts:    old.opts,
		sg:      old.sg.Rederive(dg, old.opts.SiteGraph, sites),
		sites:   make([]*rankerSite, ns),
		version: dg.G.Version(),
	}
	// Clean sites share the old pointers (index and kept chain, neither
	// of which refers to a graph); changed ones start over.
	copy(core.sites, old.sites)
	for _, s := range sites {
		core.sites[s] = newRankerSite(dg, s)
	}
	return &Ranker{core: core}, nil
}
