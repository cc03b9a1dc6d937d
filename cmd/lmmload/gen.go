package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"lmmrank"
)

// The seeded inputs of a run: the query stream of each client and the
// single-site edits of the update streams. The same seed reproduces the
// same sequences; the program under test only ever sees the generated
// queries and deltas.

const (
	poolSize    = 64  // site-personalization vectors a serving client draws from
	zipfS       = 1.2 // skew of that draw
	tenantCount = 4
	topK        = 10
	// editIntra/editCross: every edit adds four links inside its site and
	// one leaving it, so both the site's local chain and the site layer move.
	editIntra = 4
	editCross = 1
)

// mix names the query stream a workload's clients issue.
type mix int

const (
	// mixSolve alternates uniform and site-personalized full-DocRank
	// queries (solve-paper).
	mixSolve mix = iota
	// mixServe issues TopK queries under a Zipf-drawn site
	// personalization and a tenant (serve-topk, serve-churn).
	mixServe
	// mixUniform issues the uniform full-DocRank query only (dist-wan).
	mixUniform
)

// queryDesc is one generated query before it is bound to a web: Pool is
// an index into the personalization pool, or -1 for the uniform query.
type queryDesc struct {
	Pool   int
	Tenant int
	TopK   int
}

type queryGen struct {
	mix  mix
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newQueryGen(m mix, seed int64, client int) *queryGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))
	return &queryGen{mix: m, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, poolSize-1)}
}

func (g *queryGen) next() queryDesc {
	g.n++
	switch g.mix {
	case mixSolve:
		if g.n%2 == 1 {
			return queryDesc{Pool: -1}
		}
		return queryDesc{Pool: g.rng.Intn(poolSize)}
	case mixServe:
		return queryDesc{Pool: int(g.zipf.Uint64()), Tenant: g.rng.Intn(tenantCount), TopK: topK}
	default:
		return queryDesc{Pool: -1}
	}
}

// traffic binds generated descriptors to one web's site count.
type traffic struct {
	pool    []lmmrank.Vector
	tenants []string
}

func newTraffic(numSites int) *traffic {
	t := &traffic{pool: personalizationPool(numSites), tenants: make([]string, tenantCount)}
	for i := range t.tenants {
		t.tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	return t
}

func (t *traffic) query(d queryDesc) lmmrank.Query {
	q := lmmrank.Query{TopK: d.TopK}
	if d.Pool >= 0 {
		q.SitePersonalization = t.pool[d.Pool]
	}
	if d.TopK > 0 {
		q.Tenant = t.tenants[d.Tenant]
	}
	return q
}

// personalizationPool draws poolSize site-layer teleport distributions:
// each prefers a handful of sites over a uniform floor, like a user
// whose interests sit with a few departments. Like the web, the pool is
// part of the corpus, not of a run: a vector's solve takes as many
// iterations as its shape demands, so a pool redrawn per run seed would
// make the hot vectors, and with them every latency, a property of the
// seed. The run seed decides who asks for which vector when.
func personalizationPool(numSites int) []lmmrank.Vector {
	rng := rand.New(rand.NewSource(corpusSeed*2_000_003 + 29))
	pool := make([]lmmrank.Vector, poolSize)
	for i := range pool {
		v := make(lmmrank.Vector, numSites)
		for s := range v {
			v[s] = 0.5 / float64(numSites)
		}
		favourites := 3 + rng.Intn(6)
		for f := 0; f < favourites; f++ {
			v[rng.Intn(numSites)] += 0.5 / float64(favourites)
		}
		pool[i] = v.Normalize()
	}
	return pool
}

// edit is one single-site graph change: Links are (from, to) DocIDs,
// every from inside Site.
type edit struct {
	Site  lmmrank.SiteID
	Links [editIntra + editCross][2]lmmrank.DocID
}

func (e edit) delta() lmmrank.GraphDelta {
	return lmmrank.GraphDelta{
		ChangedSites: []lmmrank.SiteID{e.Site},
		Apply:        e.apply,
	}
}

func (e edit) apply(dg *lmmrank.DocGraph) error {
	for _, l := range e.Links {
		dg.G.AddEdge(int(l[0]), int(l[1]), 1)
	}
	return nil
}

// editPlan draws n edits over dg's sites. Edits only add links, so the
// site rosters read here stay valid however many edits were applied
// before, and the plan depends on nothing but (seed, stream, rosters).
func editPlan(seed int64, stream int, dg *lmmrank.DocGraph, n int) []edit {
	rng := rand.New(rand.NewSource(seed*3_000_017 + int64(stream)*104_729 + 41))
	var eligible []lmmrank.SiteID
	for s := range dg.Sites {
		if len(dg.Sites[s].Docs) >= 2 {
			eligible = append(eligible, lmmrank.SiteID(s))
		}
	}
	plan := make([]edit, n)
	for i := range plan {
		e := edit{Site: eligible[rng.Intn(len(eligible))]}
		docs := dg.Sites[e.Site].Docs
		for k := range e.Links {
			from := docs[rng.Intn(len(docs))]
			var to lmmrank.DocID
			if k < editIntra {
				to = docs[rng.Intn(len(docs))]
			} else {
				other := eligible[rng.Intn(len(eligible))]
				for other == e.Site && len(eligible) > 1 {
					other = eligible[rng.Intn(len(eligible))]
				}
				odocs := dg.Sites[other].Docs
				to = odocs[rng.Intn(len(odocs))]
			}
			e.Links[k] = [2]lmmrank.DocID{from, to}
		}
		plan[i] = e
	}
	return plan
}

// sequenceHash fingerprints generated inputs, so tests (and the run
// header) can tell two streams apart without storing them.
func sequenceHash(descs []queryDesc, edits []edit) uint64 {
	h := fnv.New64a()
	for _, d := range descs {
		fmt.Fprintf(h, "q%d/%d/%d;", d.Pool, d.Tenant, d.TopK)
	}
	for _, e := range edits {
		fmt.Fprintf(h, "e%d%v;", e.Site, e.Links)
	}
	return h.Sum64()
}
