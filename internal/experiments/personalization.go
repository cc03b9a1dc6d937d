package experiments

import (
	"fmt"
	"strings"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/rankutil"
	"lmmrank/internal/webgen"
)

// PersonalizationResult is experiment E8: the §3.2 claim that
// "personalization of rankings can be easily implemented in our layered
// method", at the site layer, the document layer, and both.
type PersonalizationResult struct {
	Web *webgen.Web
	// Base is the unpersonalized layered ranking.
	Base *lmm.WebResult
	// SiteBiased boosts one focus site at the upper layer.
	SiteBiased *lmm.WebResult
	// DocBiased boosts one focus page at the lower layer of its site.
	DocBiased *lmm.WebResult
	// BothBiased applies both at once.
	BothBiased *lmm.WebResult
	// FocusSite and FocusDoc are the personalization targets.
	FocusSite graph.SiteID
	FocusDoc  graph.DocID
	// Ranks of the focus doc under each variant (1-based).
	BaseRank, SiteRank, DocRank, BothRank int
}

// RunPersonalization runs E8 on a small campus web: the focus is an
// ordinary page of an ordinary site, which personalization should pull up
// the global ranking at each layer.
func RunPersonalization(seed int64) (*PersonalizationResult, error) {
	cfg := webgen.Small()
	cfg.Seed = seed
	web := webgen.Generate(cfg)

	// Focus: the last ordinary site's second page (an unremarkable doc on
	// a site free of agglomerate clusters).
	var focusSite graph.SiteID = -1
	for s := web.Graph.NumSites() - 1; s >= 0 && focusSite < 0; s-- {
		docs := web.Graph.Sites[s].Docs
		if len(docs) < 3 || web.Class[docs[0]] != webgen.ClassHome {
			continue
		}
		clean := true
		for _, d := range docs {
			if web.Class[d].IsAgglomerate() {
				clean = false
				break
			}
		}
		if clean {
			focusSite = graph.SiteID(s)
		}
	}
	if focusSite < 0 {
		return nil, fmt.Errorf("experiments: personalization: no suitable focus site")
	}
	focusDoc := web.Graph.Sites[focusSite].Docs[1]

	base, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{})
	if err != nil {
		return nil, fmt.Errorf("experiments: personalization base: %w", err)
	}

	sitePers := matrix.NewVector(web.Graph.NumSites())
	for i := range sitePers {
		sitePers[i] = 0.2 / float64(len(sitePers)-1)
	}
	sitePers[focusSite] = 0.8

	docPers := matrix.NewVector(web.Graph.SiteSize(focusSite))
	local, _ := web.Graph.Sites[focusSite].Docs, 0
	for i := range docPers {
		docPers[i] = 0.2 / float64(len(docPers)-1)
	}
	for i, d := range local {
		if d == focusDoc {
			docPers[i] = 0.8
		}
	}
	docPers.Normalize()

	siteBiased, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{SitePersonalization: sitePers})
	if err != nil {
		return nil, fmt.Errorf("experiments: site-biased: %w", err)
	}
	docBiased, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{
		DocPersonalization: map[graph.SiteID]matrix.Vector{focusSite: docPers},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: doc-biased: %w", err)
	}
	bothBiased, err := lmm.LayeredDocRank(web.Graph, lmm.WebConfig{
		SitePersonalization: sitePers,
		DocPersonalization:  map[graph.SiteID]matrix.Vector{focusSite: docPers},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: both-biased: %w", err)
	}

	res := &PersonalizationResult{
		Web: web, Base: base, SiteBiased: siteBiased,
		DocBiased: docBiased, BothBiased: bothBiased,
		FocusSite: focusSite, FocusDoc: focusDoc,
	}
	res.BaseRank = rankOf(base.DocRank, int(focusDoc))
	res.SiteRank = rankOf(siteBiased.DocRank, int(focusDoc))
	res.DocRank = rankOf(docBiased.DocRank, int(focusDoc))
	res.BothRank = rankOf(bothBiased.DocRank, int(focusDoc))
	return res, nil
}

// rankOf returns the 1-based rank position of item i.
func rankOf(scores matrix.Vector, i int) int {
	return rankutil.Ranks(scores)[i] + 1
}

// Format renders the E8 table.
func (r *PersonalizationResult) Format() string {
	var b strings.Builder
	b.WriteString("E8 — two-layer personalization (§3.2)\n\n")
	fmt.Fprintf(&b, "focus page: %s (site %q)\n\n",
		r.Web.Graph.URL(r.FocusDoc), r.Web.Graph.Sites[r.FocusSite].Name)
	fmt.Fprintf(&b, "%-28s %-12s %s\n", "variant", "global rank", "score")
	rows := []struct {
		name string
		rank int
		res  *lmm.WebResult
	}{
		{"uniform (no bias)", r.BaseRank, r.Base},
		{"site layer biased", r.SiteRank, r.SiteBiased},
		{"document layer biased", r.DocRank, r.DocBiased},
		{"both layers biased", r.BothRank, r.BothBiased},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-28s %-12d %.6f\n", row.name, row.rank, row.res.DocRank[r.FocusDoc])
	}
	b.WriteString("\n(every variant remains a probability distribution; the Partition\n Theorem composition is unchanged — see TestPersonalizedPartitionTheorem)\n")
	return b.String()
}
