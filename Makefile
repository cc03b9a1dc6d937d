# Development targets for lmmrank. `make ci` is the full CI gate —
# exactly what .github/workflows/ci.yml runs, so the local and hosted
# gates cannot drift; `make check` is its fast core.

SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: ci check fmt vet lint build test race race-multi alloc-pins chaos cover fuzz-smoke bench bench-smoke docs loc api answers pairs

# The umbrella target CI calls: the fast gate, the race detector over
# the concurrency-heavy packages (single- and multi-core), the allocation
# pins at 1, 2 and 4 procs, the deterministic-seed fault sweep, the
# coverage floors, a bounded fuzz smoke, and a 1x smoke pass over every
# benchmark (so the E-series cannot rot between bench sessions).
# Performance is not gated here: a speed claim is made with cmd/lmmload's
# interleaved parent/head runs.
ci: check race race-multi alloc-pins chaos cover fuzz-smoke bench-smoke

check: fmt vet lint build test docs

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Deep static analysis and the vulnerability scan, pinned via `go run`
# tool versions so every machine lints identically without polluting
# go.mod. Both need the module proxy to fetch the tool on first use;
# an offline toolchain (no proxy, no cache) skips with a notice instead
# of failing the build — hosted CI has the network and enforces them.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4
lint:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline toolchain?); skipped"; \
	fi
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK) ./...; \
	else \
		echo "lint: govulncheck unavailable (offline toolchain?); skipped"; \
	fi

# The big-endian leg: a packed column's block is one copy of its memory
# on a little-endian host and converted element by element elsewhere
# (internal/graph's WriteBlock and ReadBlock); cross-building for s390x
# keeps that second path, and the tests that force it, compiling.
build:
	$(GO) build ./...
	GOARCH=s390x $(GO) build ./...
	GOARCH=s390x $(GO) test -c -o /dev/null ./internal/graph ./internal/dist/wire

test:
	$(GO) test ./...

# The distributed runtime is concurrency-heavy (cmd/lmmcoord's test
# drives a live loopback fleet through a DistEngine), internal/lmm holds the
# parallel-pipeline regression tests (undeduped shared graphs) and the
# per-site chains that the first query needing one builds and publishes
# once (a refresh solves on chains it drops) from transient subgraphs, the root
# package hosts the concurrent Engine serving tests, and internal/matrix,
# internal/pagerank and internal/graph hold the state those share across
# goroutines (the CSR chains every solver reads at once — a
# pagerank.Chain under many Solvers, TestChainSharedBySolvers —
# copy-on-write adjacency and SiteGraph rows); keep all of them
# race-clean. The explicit timeout keeps a wedged networked test from
# stalling CI for the runner's full budget.
race:
	$(GO) test -race -timeout 10m . ./cmd/lmmcoord ./internal/dist/... ./internal/lmm/... ./internal/matrix ./internal/pagerank ./internal/graph

# The multicore race leg: the serving pool, keyed admission and
# coalescing paths schedule very differently on one core than on four,
# and a race that needs real parallelism to interleave never fires at
# GOMAXPROCS=1. The distributed runtime rides along so its bitwise pins
# (worker-order reduce, warm answers repeating to the bit) hold with real parallelism too, and so do the shared structures
# below the engines: the multi-core kernel pins (internal/matrix), one
# chain under concurrent solvers (internal/pagerank), the
# lazy build of a site's chain on concurrent first use, exactly once a
# core beside an incremental rebuild (internal/lmm, and a LocalEngine's
# first queries that solve the sites in the root package),
# and readers of a graph while its COW clones are taken and edited
# (internal/graph, TestCloneCOWDoesNotWriteParent). -count=1 defeats the test cache — a cached verdict
# from a different GOMAXPROCS proves nothing.
race-multi:
	GOMAXPROCS=4 $(GO) test -race -timeout 10m -count=1 . ./internal/dist/... ./internal/lmm/... ./internal/matrix ./internal/pagerank ./internal/graph

# The allocation pins (every test with Alloc in its name: kernels, solver,
# Ranker, graph file decoder, wire codec, worker, warm DistEngine) and the
# retention pins (Retention: what a decoded web, a COW clone and a
# prepared engine keep alive) at 1, 2 and 4 procs — a zero-allocation path
# must not start allocating, nor a snapshot retaining, because procs
# appeared.
# testing.AllocsPerRun itself measures at GOMAXPROCS(1) whatever is set
# here; the pins that must hold on several procs at once count mallocs
# themselves (TestPowerLeftScratchZeroAllocsMultiCore).
alloc-pins:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=1 -run 'Alloc|Retention' ./internal/matrix ./internal/graph ./internal/pagerank ./internal/lmm ./internal/dist/wire ./internal/dist/worker . ; \
	done

# The fault-injection sweep: the seeded kill/rejoin/interrupt soak over the
# chaos-proxied fleet, race-checked. The seed is fixed in the test, so a
# CI failure reproduces locally with this exact command.
chaos:
	$(GO) test -race -run 'Chaos' -timeout 10m -count=1 ./internal/dist/...

# Documentation gate: go vet's doc-adjacent checks run under `vet`; this
# target additionally fails when any package (library or command) lacks a
# godoc package comment — the repo's docs rot guard. Library packages
# must carry "// Package <name> ..."; main packages "// Command <name>
# ...". It also fails when a Go file names an X.md that is not the
# basename of a Markdown file `git ls-files` lists — a pointer to a
# document that does not exist. And it fails when a command's `// Usage:`
# block (the tab-indented lines under it, in a cmd/* or examples/* main)
# names a -flag that the command, built and run with -h, does not list —
# a flag the docs promise and the program would refuse. Keep it
# grep-simple so it stays dependency-free.
docs:
	@fail=0; \
	for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		if ! grep -qsE '^// (Package|Command) ' $$d/*.go; then \
			echo "missing package comment: $$d"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then \
		echo "every package needs a '// Package ...' or '// Command ...' godoc comment"; exit 1; \
	fi; \
	known="$$(git ls-files '*.md' | xargs -n1 basename)"; \
	for ref in $$(git ls-files -co --exclude-standard '*.go' | xargs grep -HnoE '[A-Za-z0-9_.-]+\.md\b' || true); do \
		if ! grep -qxF "$${ref##*:}" <<< "$$known"; then \
			echo "$$ref: no such document"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then \
		echo "every X.md a Go file names must be the basename of a file in git ls-files '*.md'"; exit 1; \
	fi; \
	tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for f in $$(git ls-files -co --exclude-standard 'cmd/*/*.go' 'examples/*/*.go' | grep -v '_test\.go$$'); do \
		documented="$$(awk '/^\/\/ Usage:/ { u = 1; next } u && /^\/\/\t/ { print; seen = 1; next } u && (seen || !/^\/\/$$/) { exit }' $$f \
			| grep -oE '(^|[[ ])-[A-Za-z][A-Za-z0-9-]*' | sed 's/^[[ ]//' | sort -u || true)"; \
		[ -n "$$documented" ] || continue; \
		$(GO) build -o "$$tmp/cmd" "./$$(dirname $$f)"; \
		defined="$$("$$tmp/cmd" -h 2>&1 | grep -oE '^  -[A-Za-z0-9_-]+' | sed 's/^  //' || true)"; \
		for fl in $$documented; do \
			if ! grep -qxF -- "$$fl" <<< "$$defined"; then \
				echo "$$f: Usage names $$fl, which $$(dirname $$f) does not define"; fail=1; \
			fi; \
		done; \
	done; \
	if [ $$fail -ne 0 ]; then \
		echo "every -flag a command's Usage block names must be one its -h lists"; exit 1; \
	fi

# Non-test Go lines per package (blank lines and comments included —
# plain wc -l over the files the package builds from), plus the total:
# the before/after a design-quality PR quotes, from one command.
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... \
	    | while read -r pkg files; do \
	        [ -z "$$files" ] || printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	    done \
	    | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

# The exported surface a change moves, from one command: the `go doc -all`
# of the root package and of every internal package cmd/lmmcoord and
# cmd/lmmload compile against — the distributed runtime, and the model,
# graph, solver, placement and web-generator packages the load rig
# drives — at PARENT (extracted with `git archive`, as `pairs` does)
# diffed against the working tree. A difference is the report, not a
# failure.
API_PKGS := . ./internal/dist/coordinator ./internal/dist/wire ./internal/dist/cluster ./internal/dist/chaos \
	./internal/lmm ./internal/graph ./internal/matrix ./internal/pagerank ./internal/partition ./internal/webgen
api:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/parent-src"; \
	git archive $(PARENT) | tar -x -C "$$tmp/parent-src"; \
	for p in $(API_PKGS); do \
		(cd "$$tmp/parent-src" && $(GO) doc -all $$p) > "$$tmp/parent.txt"; \
		$(GO) doc -all $$p > "$$tmp/head.txt"; \
		diff -u --label "$(PARENT) $$p" --label "working tree $$p" "$$tmp/parent.txt" "$$tmp/head.txt" || true; \
	done

# The answers a change must leave bit-identical, from one command:
# tools/answers prints FNV-64a hashes over the layered pipeline's and a
# 4-worker DistEngine's answers on fixed webs (its package comment lists
# them). With PARENT given on the command line, the same program is also
# built inside PARENT's tree (extracted with `git archive`, as `api`
# does) and each hash prints beside PARENT's, marked "same" or
# "DIFFERENT". A difference is the report, not a failure.
answers:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./tools/answers > "$$tmp/head.txt"; \
	parent='$(if $(filter command line environment,$(origin PARENT)),$(PARENT))'; \
	if [ -z "$$parent" ]; then cat "$$tmp/head.txt"; exit 0; fi; \
	mkdir -p "$$tmp/parent-src/tools"; \
	git archive "$$parent" | tar -x -C "$$tmp/parent-src"; \
	rm -rf "$$tmp/parent-src/tools/answers"; cp -r tools/answers "$$tmp/parent-src/tools/"; \
	(cd "$$tmp/parent-src" && $(GO) run ./tools/answers) > "$$tmp/parent.txt"; \
	echo "answer       working tree     $$parent"; \
	paste "$$tmp/head.txt" "$$tmp/parent.txt" | \
	    awk '{ printf "%-12s %s %s %s\n", $$1, $$2, $$4, ($$2 == $$4 ? "same" : "DIFFERENT") }'

# Coverage floors. internal/dist+partition: the merged statement
# coverage of the distributed runtime's tests must not fall below
# COVER_FLOOR percent (the tree measured 86.5% when the gate was
# introduced at 80). Root package: the engine/serving/admission paths must
# not fall below ROOT_COVER_FLOOR percent (89.4% when introduced at 75).
# Ratcheted when the coordinator stopped solving the site layer, to the
# measured value rounded down to a whole percent, minus 2: dist+partition
# 92.6–92.9% → 90, root 90.9% → 88. The 2 points leave headroom for
# noise; a PR that deletes a slice of the fleet or engine tests fails
# the gate.
COVER_FLOOR      ?= 90
ROOT_COVER_FLOOR ?= 88
COVER_PROFILE    ?= cover.out
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) \
	    -coverpkg=./internal/dist/...,./internal/partition/... \
	    -timeout 10m ./internal/dist/... ./internal/partition/... > /dev/null
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	rm -f $(COVER_PROFILE); \
	echo "internal/dist+partition coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || { \
		echo "internal/dist+partition coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; \
	}
	$(GO) test -coverprofile=$(COVER_PROFILE) -coverpkg=. -timeout 10m . > /dev/null
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	rm -f $(COVER_PROFILE); \
	echo "root lmmrank coverage: $$total% (floor $(ROOT_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(ROOT_COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || { \
		echo "root lmmrank coverage $$total% fell below the $(ROOT_COVER_FLOOR)% floor"; exit 1; \
	}

# Quick smoke pass over every benchmark in the module (bounded like
# `race`, for the same CI reason).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -timeout 10m -run '^$$' ./...

# Bounded fuzz smoke over every fuzz target, one `go test -fuzz` run
# per target (the flag takes a single target per package). Keeps the
# corpus-driven guards — COW clone isolation, the site runs against a
# per-document site column across clone chains, the sites an Update
# derives and its incremental check against full diffs and Validate, the graph (text and binary)
# and wire decoders' never-panic/bounded-allocation contracts, the
# transition matrix and NewCSR against their dense references, the top-k
# index's radix sort against the comparison sort and coalescing-fingerprint
# safety — from rotting between dedicated fuzz sessions.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCloneCOW$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzSiteRuns$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzChangedSince$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBinary$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzTransitionMatrix$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzNewCSR$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/matrix
	$(GO) test -run '^$$' -fuzz '^FuzzQueryFingerprint$$' -fuzztime $(FUZZTIME) -timeout 10m .
	$(GO) test -run '^$$' -fuzz '^FuzzSortSite$$' -fuzztime $(FUZZTIME) -timeout 10m .
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/dist/wire

# The E-series benchmarks with allocation reporting, as `go test` prints
# them — for looking at while working, not for comparing commits (that
# is cmd/lmmload's job).
BENCH       ?= ^BenchmarkE
BENCH_COUNT ?= 5
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count=$(BENCH_COUNT) .

# The measurement a speed claim rests on, from one command: N interleaved
# parent/head pairs of one cmd/lmmload workload, seeds SEED0+1…SEED0+N
# (101…100+N by default), the side that runs first alternating. PARENT is extracted with `git archive`
# into a throwaway directory (nothing is left in .git, and nothing needs
# the network) and built there; the head is the working tree. Prints every
# run, then each side's median and quartiles and the pairs the head won
# (ties count for neither) for the three gated metrics, lower being
# better for all of them.
PARENT   ?= HEAD~1
WORKLOAD ?= solve-paper
N        ?= 10
SEED0    ?= 100
define PAIRS_SUMMARY
function quantile(v, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
function summary(side, m,    n, i, j, t, v) {
	n = 0
	for (i = 1; i <= pairs; i++) v[++n] = val[side, m, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return sprintf("%.4g [%.4g, %.4g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
}
$$3 == "ops_failed" { failed[$$1] += $$4; next }
{ val[$$1, $$3, ++count[$$1, $$3]] = $$4; pairs = count[$$1, $$3] }
END {
	split("setup_s heap_live_mb rank_alloc_kb", metrics)
	for (k = 1; k <= 3; k++) {
		m = metrics[k]; wins = 0
		for (i = 1; i <= pairs; i++) if (val["head", m, i] < val["parent", m, i]) wins++
		printf "%-14s parent %s -> head %s, head lower in %d of %d\n", m, summary("parent", m), summary("head", m), wins, pairs
	}
	printf "failed operations: parent %d, head %d\n", failed["parent"], failed["head"]
}
endef
export PAIRS_SUMMARY
pairs:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/parent-src"; \
	git archive $(PARENT) | tar -x -C "$$tmp/parent-src"; \
	(cd "$$tmp/parent-src" && $(GO) build -o "$$tmp/parent" ./cmd/lmmload); \
	$(GO) build -o "$$tmp/head" ./cmd/lmmload; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent head"; else order="head parent"; fi; \
		for side in $$order; do \
			"$$tmp/$$side" -workload $(WORKLOAD) -seed $$(($(SEED0) + i)) -out "$$tmp/out" > "$$tmp/run.txt"; \
			awk -v side=$$side -v seed=$$(($(SEED0) + i)) \
			    '$$1 ~ /^(setup_s|heap_live_mb|rank_alloc_kb|ops_failed)$$/ { print side, seed, $$1, $$2 }' \
			    "$$tmp/run.txt" | tee -a "$$tmp/all.txt"; \
		done; \
	done; \
	awk "$$PAIRS_SUMMARY" "$$tmp/all.txt"
