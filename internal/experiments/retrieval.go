package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// errNotFinalized is returned when querying an index before finalize.
var errNotFinalized = errors.New("experiments: index not finalized")

// textIndex is an in-memory TF-IDF inverted index over document term
// vectors with cosine scoring: the text half of the fusion experiment,
// the paper's stated future work (§4) — "work of combining query-based
// ranking and link-based ranking will also be carried out". searchEngine
// blends its scores with any link-based DocRank (flat PageRank or the
// layered method) by linear interpolation, the standard fusion search
// engines of the era used.
type textIndex struct {
	numDocs   int
	postings  map[string][]posting
	docNorm   map[graph.DocID]float64
	idf       map[string]float64
	finalized bool
}

// posting is one document's raw term frequency for a term.
type posting struct {
	doc graph.DocID
	tf  float64
}

// newTextIndex returns an empty index.
func newTextIndex() *textIndex {
	return &textIndex{
		postings: make(map[string][]posting),
		docNorm:  make(map[graph.DocID]float64),
		idf:      make(map[string]float64),
	}
}

// add indexes a document's terms (duplicates increase term frequency).
// Terms are lower-cased. Adding after finalize panics: the index is
// build-then-query.
func (ix *textIndex) add(d graph.DocID, terms []string) {
	if ix.finalized {
		panic("experiments: add after finalize")
	}
	if len(terms) == 0 {
		return
	}
	counts := make(map[string]float64, len(terms))
	for _, t := range terms {
		t = strings.ToLower(strings.TrimSpace(t))
		if t != "" {
			counts[t]++
		}
	}
	for t, c := range counts {
		ix.postings[t] = append(ix.postings[t], posting{doc: d, tf: c})
	}
	ix.numDocs++
}

// finalize computes IDF weights and document norms; the index becomes
// queryable and immutable.
func (ix *textIndex) finalize() {
	if ix.finalized {
		return
	}
	n := float64(ix.numDocs)
	for t, plist := range ix.postings {
		// Smoothed IDF, always positive.
		ix.idf[t] = math.Log(1 + n/float64(len(plist)))
	}
	for t, plist := range ix.postings {
		idf := ix.idf[t]
		for _, p := range plist {
			w := tfWeight(p.tf) * idf
			ix.docNorm[p.doc] += w * w
		}
	}
	for d, s := range ix.docNorm {
		ix.docNorm[d] = math.Sqrt(s)
	}
	ix.finalized = true
}

// tfWeight is the sublinear TF scaling 1 + log(tf).
func tfWeight(tf float64) float64 {
	if tf <= 0 {
		return 0
	}
	return 1 + math.Log(tf)
}

// query scores all matching documents by cosine similarity between the
// TF-IDF query vector and each document vector. Unmatched documents are
// absent from the result.
func (ix *textIndex) query(terms []string) (map[graph.DocID]float64, error) {
	if !ix.finalized {
		return nil, errNotFinalized
	}
	qCounts := make(map[string]float64, len(terms))
	for _, t := range terms {
		t = strings.ToLower(strings.TrimSpace(t))
		if t != "" {
			qCounts[t]++
		}
	}
	var qNorm float64
	dot := make(map[graph.DocID]float64)
	for t, c := range qCounts {
		idf, ok := ix.idf[t]
		if !ok {
			continue
		}
		qw := tfWeight(c) * idf
		qNorm += qw * qw
		for _, p := range ix.postings[t] {
			dot[p.doc] += qw * tfWeight(p.tf) * idf
		}
	}
	if qNorm == 0 || len(dot) == 0 {
		return map[graph.DocID]float64{}, nil
	}
	qn := math.Sqrt(qNorm)
	for d := range dot {
		dot[d] /= qn * ix.docNorm[d]
	}
	return dot, nil
}

// searchHit is one search hit with its score decomposition.
type searchHit struct {
	doc graph.DocID
	// query is the normalized cosine score, link the normalized DocRank,
	// combined the blended score used for ordering.
	query, link, combined float64
}

// searchEngine blends VSM query scores with a link-based DocRank.
type searchEngine struct {
	index *textIndex
	// docRank holds the link scores per DocID (any method).
	docRank []float64
	maxRank float64
	// lambda weighs the query component; 1 = pure text, 0 = pure link
	// order among matching documents.
	lambda float64
}

// newSearchEngine builds an engine from a finalized index, a DocRank
// vector and the fusion weight λ ∈ [0, 1].
func newSearchEngine(ix *textIndex, docRank []float64, lambda float64) (*searchEngine, error) {
	if !ix.finalized {
		return nil, errNotFinalized
	}
	if lambda < 0 || lambda > 1 {
		return nil, fmt.Errorf("experiments: lambda %g outside [0,1]", lambda)
	}
	var max float64
	for _, r := range docRank {
		if r > max {
			max = r
		}
	}
	if max == 0 {
		return nil, fmt.Errorf("experiments: zero DocRank vector")
	}
	return &searchEngine{index: ix, docRank: docRank, maxRank: max, lambda: lambda}, nil
}

// search returns the top-k matching documents ordered by the blended
// score. Only documents matching at least one query term are returned —
// link score alone never surfaces a non-matching page.
func (se *searchEngine) search(terms []string, k int) ([]searchHit, error) {
	qScores, err := se.index.query(terms)
	if err != nil {
		return nil, err
	}
	results := make([]searchHit, 0, len(qScores))
	for d, q := range qScores {
		link := 0.0
		if int(d) < len(se.docRank) {
			link = se.docRank[d] / se.maxRank
		}
		results = append(results, searchHit{
			doc:      d,
			query:    q,
			link:     link,
			combined: se.lambda*q + (1-se.lambda)*link,
		})
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].combined != results[b].combined {
			return results[a].combined > results[b].combined
		}
		return results[a].doc < results[b].doc
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results, nil
}

// syntheticCorpus assigns deterministic term vectors to every page of a
// generated campus web, so the fusion experiment has content to query:
//
//   - every page carries generic campus terms,
//   - each site has a topic; its pages carry the topic terms (the home
//     page most strongly),
//   - authority pages carry service terms named after their URL role,
//   - agglomerate pages carry only boilerplate terms (script chrome /
//     javadoc chrome), which is what makes them retrievable yet
//     uninformative — the reason link fusion matters.
func syntheticCorpus(web *webgen.Web, seed int64) *textIndex {
	rng := rand.New(rand.NewSource(seed))
	ix := newTextIndex()

	topicOf := make(map[graph.SiteID]string, web.Graph.NumSites())
	for s := range web.Graph.Sites {
		topicOf[graph.SiteID(s)] = fmt.Sprintf("topic%03d", s)
	}

	for d := range web.Graph.NumDocs() {
		doc := graph.DocID(d)
		site := web.Graph.SiteOf(doc)
		topic := topicOf[site]
		var terms []string
		add := func(t string, n int) {
			for i := 0; i < n; i++ {
				terms = append(terms, t)
			}
		}
		add("campus", 1)
		add("university", 1)
		switch web.Class[d] {
		case webgen.ClassHome:
			add(topic, 5)
			add("welcome", 2)
			add("department", 2)
		case webgen.ClassAuthority:
			add(topic, 2)
			add("service", 3)
			add(fmt.Sprintf("service%d", rng.Intn(4)), 2)
		case webgen.ClassDynamicAgglomerate:
			add("database", 2)
			add("webdriver", 3)
			add("record", 2)
		case webgen.ClassDocAgglomerate:
			add("javadoc", 3)
			add("class", 2)
			add("method", 2)
		default:
			add(topic, 3)
			add(fmt.Sprintf("subject%02d", rng.Intn(30)), 2)
			add(fmt.Sprintf("subject%02d", rng.Intn(30)), 1)
		}
		ix.add(doc, terms)
	}
	ix.finalize()
	return ix
}
