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
//     balancing, digest-keyed worker caches, flate shard compression,
//     one SiteRank loop selected by DistConfig.SiteRank alone
//     (SiteRankMode: central by default, or on the fleet as synchronous
//     rounds, batched rounds, or the barrier-free asynchronous protocol
//     with synchronous verification — seeded-deterministic when
//     ordered), mid-run worker-loss recovery and background redial with
//     mid-run re-admission (DistRetryPolicy), and checkpointed SiteRank
//     iteration (DistCheckpoint).
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
// # Ownership contract
//
// Public results are caller-owned. Everything an Engine returns — and
// everything the one-shot wrappers (LayeredDocRank, LayeredDocRank3,
// PageRank, PageRankGraph) and the distributed runtime return — is the
// caller's alone: retain it, mutate it, share it across goroutines; no
// later query will observe or disturb it. What an engine keeps between
// queries stays inside it — a DistEngine snapshot retains the fleet's
// local DocRanks and the last πS and answers Query.WantLocalRanks with
// copies; only a coordinator run handed vectors to reuse
// (coordinator.Warm) returns those same vectors. Scratch aliasing is an
// internal/ concern only, surfacing in exactly one deprecated-in-spirit
// expert path: Ranker (below).
//
// # Performance contracts
//
// The serving core trades safety rails for zero steady-state
// allocations; the contracts below are stated on the symbols they bind
// and collected here because they span packages.
//
// Scratch aliasing (Ranker only): results returned by Ranker.Rank (the
// WebResult's vectors) alias the Ranker's internal buffers and are
// valid only until the next Rank on the same Ranker — clone to retain,
// or serve through an Engine, which copies results out of pooled
// scratch before returning them. A Ranker value is not goroutine-safe;
// Engine's pool of scratch-private Rankers over one shared core is the
// concurrent path.
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
// Invalidation and churn: engines and Rankers capture their DocGraph by
// reference and precompute derived structure from it. Mutating the
// graph invalidates that structure, and the invalidation is enforced:
// the graph carries a mutation version, and a query against stale
// structure fails with ErrGraphMutated instead of silently serving
// stale rankings. The supported way to change a served graph is
// Engine.Update(ctx, GraphDelta) — graph churn as a serving operation,
// implemented as multi-version snapshot serving:
//
//   - Snapshot semantics: an engine's whole serving state — graph,
//     precomputed cores, warm seeds — lives behind one atomic pointer
//     to an immutable snapshot. Update applies GraphDelta.Apply to a
//     copy-on-write clone of the graph (the clone shares the packed
//     adjacency, the document records and the site rosters with the old
//     graph by pointer and holds only the rows it rewrites — so Apply
//     may add links, documents and sites, but must not overwrite or
//     reorder Docs or a Site.Docs roster in place), rebuilds off to the
//     side and publishes with a single store. Queries never wait for an
//     Update and an Update never waits for queries: a Rank in flight
//     across the swap completes on the snapshot it started on,
//     bit-identical to an uncontended run, and the next Rank sees the
//     new graph. A failed Apply-path Update discards the clone — a
//     no-op, the engine is exactly as before. Because the served graph
//     evolves through clones, re-fetch it with DocGraph() after
//     updating rather than caching the construction-time pointer.
//   - A nil Apply means the caller already mutated the serving graph in
//     place, which is only safe with no queries in flight; on that path
//     a failed Update records the delta's sites so a later Update
//     rebuilds them too.
//   - ChangedSites is the caller's contract: it must list every site
//     whose pages or links changed (appended sites are implicit). Only
//     those sites' structure is rebuilt — locally their SiteGraph rows,
//     matrices and solvers (clean sites' chains are shared by pointer,
//     and queries warm-start from the previous solution);
//     distributedly their shards and local DocRanks (clean shards stay
//     in the worker caches and are never re-shipped, clean sites' local
//     DocRanks carry into the next snapshot and are never re-solved —
//     Result.Dist.ShardsReused / ShardsReshipped / LocalRanksReused
//     account for it).
//   - After an out-of-band mutation (or a failed nil-Apply Update),
//     queries keep failing with ErrGraphMutated until a successful
//     Update or a fresh engine — recovery is always explicit.
//
// Self-healing and restart: DistRetryPolicy.MaxRedials arms a
// background redial loop — each lost worker is redialed with jittered
// exponential backoff (RedialBase doubling up to RedialMax) and, once
// reachable, re-admitted at the next sequential point of the same run:
// its sites rebalance back by the deterministic weighted assignment, a
// warm digest cache means near-zero bytes re-shipped
// (DistStats.RejoinShardBytes measures exactly the rejoin traffic), and
// interim owners drop the moved sites so no chain row is double-counted.
// Orthogonally, DistConfig.Checkpoint persists the fleet-side SiteRank
// iterate (every SiteRankMode but SiteRankCentral) so a restarted
// coordinator resumes instead of recomputing. The
// Checkpoint contract: Save must durably replace the stored state or
// fail the run (FileCheckpoint writes a temp file, syncs it and renames
// — readers never see a torn state); Load returns (nil, nil) when
// nothing is stored and an error for a file that fails its checksum; a
// state whose digest does not match the current graph + configuration
// (mode, sizes, damping, tolerance, iteration cap, teleport vector,
// shard digests) is ignored and the iteration starts fresh; a converged
// run Clears its checkpoint. Resuming continues the exact float
// sequence — the checkpoint file and the wire both carry float64 bits
// verbatim — so an interrupted-and-resumed run reproduces the
// uninterrupted ranks bitwise, in fewer remaining rounds
// (DistStats.ResumedFromRound + SiteRankRounds equals the uninterrupted
// total).
//
// Serving: both engines answer through one serving front — validate,
// admit (Query.Tenant's quota, then the engine-wide cap; *OverloadError
// names the gate that refused), coalesce (identical queries, or similar
// ones within CoalesceTol), solve, hand off — and differ only in who
// solves the local DocRanks. docs/ARCHITECTURE.md, "The Engine layer",
// describes it once, step by step; the knobs are documented on
// EngineOptions (DistConfig carries the same ones for DistEngine, all
// but the LocalEngine-only TopKIndex) and ServingStats() on either
// engine reports admissions, overloads per tenant, coalesced shares and
// index serves. Tenancy is an admission identity only and never changes
// a query's answer.
//
// The expert-path equivalents are lmm-level: Ranker.Rebuild(changed) /
// Ranker.RebuildOn(clone, changed) for the structural half and
// WebConfig.SiteStart/LocalStarts for the warm seeds.
package lmmrank
