package retrieval

import (
	"fmt"
	"math/rand"

	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// SyntheticCorpus assigns deterministic term vectors to every page of a
// generated campus web, so retrieval experiments have content to query:
//
//   - every page carries generic campus terms,
//   - each site has a topic; its pages carry the topic terms (the home
//     page most strongly),
//   - authority pages carry service terms named after their URL role,
//   - agglomerate pages carry only boilerplate terms (script chrome /
//     javadoc chrome), which is what makes them retrievable yet
//     uninformative — the reason link fusion matters.
func SyntheticCorpus(web *webgen.Web, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	ix := NewIndex()

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
		ix.Add(doc, terms)
	}
	ix.Finalize()
	return ix
}
