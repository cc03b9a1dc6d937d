// Package lmmrank is a Go implementation of "Using a Layered Markov Model
// for Distributed Web Ranking Computation" (Wu & Aberer, ICDCS 2005): a
// two-layer Markov model of the Web — sites above, documents below — whose
// Partition Theorem makes the global ranking computable as one small
// SiteRank composed with fully independent per-site DocRanks, enabling
// decentralized (peer-to-peer) rank computation, link-spam resistance and
// two-layer personalization.
//
// This root package is the stable facade over the internal packages:
//
//   - the serving API: Engine — Rank(ctx, Query) over a unified Query
//     (uniform / personalized / top-k / three-layer) with caller-owned
//     Results — implemented by NewLocalEngine (concurrent in-process
//     serving) and NewDistEngine (the same queries from a worker fleet);
//   - abstract Layered Markov Models (the paper's §2): Model, the four
//     ranking approaches, multi-layer hierarchies;
//   - Web ranking (§3): DocGraph construction, SiteGraph aggregation, the
//     layered DocRank pipeline and the flat-PageRank baseline;
//   - synthetic campus webs with ground-truth spam labels (the evaluation
//     substrate standing in for the paper's EPFL crawl);
//   - a distributed runtime: loopback or networked worker fleets driven by
//     a coordinator over a framed binary TCP protocol, with page-count shard
//     balancing, digest-keyed worker caches, the small site layer solved
//     by the engine that composes the answer, mid-run worker-loss recovery
//     and a background redial that rejoins a lost worker at the next run
//     (DistRetryPolicy).
//
// Quick start:
//
//	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{Seed: 1})
//	eng, err := lmmrank.NewLocalEngine(web.Graph, lmmrank.EngineOptions{})
//	res, err := eng.Rank(ctx, lmmrank.Query{TopK: 10})
//	...
//	model := lmmrank.PaperExample()
//	ranking, err := lmmrank.LayeredMethod(model, lmmrank.Config{})
//
// # Contracts
//
// Public results are caller-owned: everything an Engine returns, and
// everything the one-shot wrappers (LayeredDocRank, LayeredDocRank3,
// PageRank, PageRankGraph) return, is the caller's alone; no later query
// observes or disturbs it. docs/ARCHITECTURE.md states the contracts that
// span packages once: the serving front and its snapshots ("The Engine
// layer"), what a snapshot retains, graph churn ("Graph churn & deltas")
// and the distributed runtime's run lifecycle and failure handling.
//
// Cancellation: Engine.Rank honors its context everywhere — each solve
// checks ctx between sweeps, and distributed runs
// propagate the deadline into every wire exchange — returning ctx.Err()
// on cancellation. A nil WebConfig.Ctx (the internal hook the Engine
// fills) never cancels.
//
// Damping sentinel: a Damping (or Alpha) of exactly 0 in any config
// selects the default 0.85 — an explicit zero cannot be requested, tiny
// positive values are honored as given.
//
// Invalidation and churn: engines capture their DocGraph by reference
// and precompute derived structure from it. The supported way to change
// a served graph is Engine.Update(ctx, GraphDelta), which applies the
// delta to a copy-on-write clone, rebuilds only the sites it changed and
// publishes a new snapshot atomically: queries never wait for an Update,
// and one in flight finishes on the snapshot it started on. A graph
// mutated outside Update fails later queries and Updates with
// ErrGraphMutated instead of serving stale rankings.
//
// Serving: both engines answer through one serving front — validate,
// admit (Query.Tenant's quota, then the engine-wide cap; *OverloadError
// names the gate that refused), coalesce (identical queries, or similar
// ones within CoalesceTol), solve, hand off — over one snapshot shape
// (the default-parameter solutions and the top-k index their first TopK
// query sorts), and differ only in where the local DocRanks come from:
// the process's own solvers or the fleet. docs/ARCHITECTURE.md, "The
// Engine layer", describes it once, step by step; the knobs are
// documented on EngineOptions (DistConfig carries the same ones for
// DistEngine) and ServingStats() on either engine reports admissions,
// overloads per tenant, coalesced shares and index serves. Tenancy is an
// admission identity only and never changes a query's answer.
package lmmrank
