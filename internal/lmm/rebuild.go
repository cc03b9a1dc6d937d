package lmm

import (
	"errors"
	"fmt"

	"lmmrank/internal/graph"
)

// ErrStaleResult is returned (wrapped) when an incremental rebuild cannot
// reuse the previous structure (sites removed, or the roster of a site
// not listed as changed differs); the caller lists the site or falls
// back to a cold NewRanker.
var ErrStaleResult = errors.New("lmm: previous result is stale")

// Rebuild returns a new Ranker over this Ranker's (since mutated)
// DocGraph, rebuilding only the listed sites' precomputed structure.
// This is the structural half of the churn path: because the layered
// decomposition keeps every site's links independent, a mutation
// confined to a few sites leaves every other site's roster index, kept
// PageRank chain and SiteGraph row exactly valid — Rebuild shares those
// by pointer with the old core and starts over only for the dirty ones:
// index and SiteGraph row now, and a chain kept only once Prepare or a
// Rank needs one (a RankRefresh solves the site on a chain it does not
// keep).
//
// changed must list every site whose pages or links changed (including
// links *from* its documents to other sites); sites appended beyond the
// old roster are implicitly changed. A site not listed must have kept
// its exact document roster — otherwise ErrStaleResult — but Rebuild
// cannot verify edge sets cheaply, so an unlisted edge change silently
// yields a Ranker with a stale chain and SiteGraph row for that site:
// the caller owns the changed list.
//
// The old Ranker keeps working over the shared structure for the graph
// content it was built against, but its graph has mutated, so its
// queries now fail with ErrGraphMutated — the new Ranker is the serving
// path. The returned Ranker has fresh private scratch; call Prepare (or
// serve a warm-up query) before fanning Share()d copies out.
func (r *Ranker) Rebuild(changed []graph.SiteID) (*Ranker, error) {
	return r.RebuildOn(r.core.dg, changed)
}

// RebuildOn is Rebuild against an explicit target graph — the
// snapshot-serving form: dg is typically a DocGraph.CloneCOW() of this
// Ranker's graph with a delta applied, so the old Ranker's graph never
// mutates and it keeps serving straggler queries (no ErrGraphMutated)
// while the new Ranker is built off to the side.
//
// What is shared with the old core, by pointer: each clean site's
// rankerSite (roster index + chain, if one is kept) and its SiteGraph row.
// What is derived afresh: the changed and appended sites' indexes and
// SiteGraph rows, and the site-layer chain over the new SiteGraph. A
// rankerSite holds no reference to the graph it came from; a clean
// site's chain not yet kept is built from whichever core's graph asks,
// and the site's rows are the same in both. The changed-list
// contract is Rebuild's: every site whose pages or links differ between
// the old core's build and dg must be listed (appended sites are
// implicit), and an unlisted roster change fails with ErrStaleResult.
// Like CloneCOW on the graph, the sharing writes nothing of the old core
// or its SiteGraph: readers are never disturbed, and rebuilds from one
// core do not disturb each other.
func (r *Ranker) RebuildOn(dg *graph.DocGraph, changed []graph.SiteID) (*Ranker, error) {
	old := r.core
	if err := dg.Validate(); err != nil {
		return nil, fmt.Errorf("lmm: rebuild: %w", err)
	}
	if dg.NumDocs() == 0 {
		return nil, fmt.Errorf("lmm: rebuild: empty graph")
	}
	dg.Dedupe()
	ns := dg.NumSites()
	if ns < len(old.sites) {
		return nil, fmt.Errorf("%w: graph has %d sites, ranker %d (sites removed?)",
			ErrStaleResult, ns, len(old.sites))
	}
	changedSet := make(map[graph.SiteID]bool, len(changed))
	for _, s := range changed {
		if int(s) < 0 || int(s) >= ns {
			return nil, fmt.Errorf("lmm: rebuild: changed site %d out of range", s)
		}
		changedSet[s] = true
	}
	// Sites appended beyond the old roster are implicitly changed.
	for s := len(old.sites); s < ns; s++ {
		changedSet[graph.SiteID(s)] = true
	}
	// Unchanged sites must have kept their exact rosters, or their shared
	// chains would rank the wrong documents.
	for s := 0; s < len(old.sites); s++ {
		if changedSet[graph.SiteID(s)] {
			continue
		}
		if !sameRoster(old.sites[s].idx.ToGlobal, dg.Sites[s].Docs) {
			return nil, fmt.Errorf("%w: site %d roster changed — list it in changed",
				ErrStaleResult, s)
		}
	}

	core := &rankerCore{
		dg:      dg,
		opts:    old.opts,
		sg:      old.sg.Rederive(dg, old.opts.SiteGraph, changed),
		sites:   make([]*rankerSite, ns),
		version: dg.G.Version(),
	}
	// Clean sites share the old pointers (index and kept chain, neither
	// of which refers to a graph); dirty ones start over.
	for s := range core.sites {
		if s < len(old.sites) && !changedSet[graph.SiteID(s)] {
			core.sites[s] = old.sites[s]
		} else {
			core.sites[s] = newRankerSite(dg, graph.SiteID(s))
		}
	}
	return &Ranker{core: core}, nil
}

// sameRoster reports whether a site's document roster is unchanged.
func sameRoster(a, b []graph.DocID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
