GO ?= go

.PHONY: ci vet fmt build test procsmatrix race claims allocbudget chaos streamequiv servequiv servequiv-update cacheequiv scanequiv serve-smoke examples fuzzsmoke golden cover loc

## ci: the full gate — what a PR must pass.
ci: fmt vet build allocbudget procsmatrix race claims chaos streamequiv servequiv cacheequiv scanequiv serve-smoke examples fuzzsmoke cover

vet:
	$(GO) vet ./...

## fmt: fail if any file is not gofmt-clean (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

## test: quick suite, no race detector.
test:
	$(GO) test ./...

## procsmatrix: the internal packages at one, two and eight procs,
## uncached. Worker pools and block-decode widths auto-size from
## GOMAXPROCS, so a test that only passes at the core count of the
## machine it was written on fails here instead of on the next machine
## — and -count=1 keeps a stale test cache from hiding it.
procsmatrix:
	@set -e; for n in 1 2 8; do \
		echo "GOMAXPROCS=$$n go test ./internal/..."; \
		GOMAXPROCS=$$n $(GO) test -count=1 ./internal/...; \
	done

## race: full suite under the race detector, with test order shuffled
## so inter-test state dependence fails loudly rather than by luck.
race:
	$(GO) test -race -shuffle=on ./...

## cover: per-package coverage summary (part of ci).
cover:
	$(GO) test -cover ./...

## claims: the paper-claims regression suite alone.
claims:
	$(GO) test -run=TestClaim ./internal/core

## allocbudget: fail if Figure 3's allocs/op (BenchmarkFig3MonthlyTrend
## in internal/core) regress more than 10% over the checked-in budget
## (alloc_budget.txt). allocs/op is
## deterministic enough to gate on (±0.01% run to run); ns/op is not.
## After a deliberate allocation change, re-measure and commit the new
## budget alongside the change.
allocbudget:
	@got=$$($(GO) test -run '^$$' -bench '^BenchmarkFig3MonthlyTrend$$' -benchmem -benchtime=2x ./internal/core \
		| awk '/^BenchmarkFig3MonthlyTrend/ {for (i=2; i<=NF; i++) if ($$i == "allocs/op") print $$(i-1)}'); \
	budget=$$(cat alloc_budget.txt); \
	if [ -z "$$got" ]; then echo "allocbudget: benchmark produced no allocs/op"; exit 1; fi; \
	if awk -v g="$$got" -v b="$$budget" 'BEGIN { exit !(g > b * 1.10) }'; then \
		echo "allocbudget: Fig3 allocs/op $$got exceeds budget $$budget by >10%"; exit 1; fi; \
	echo "allocbudget ok: Fig3 $$got allocs/op (budget $$budget)"

## chaos: every figure under every fault class (fault-injection suite).
chaos:
	$(GO) test -run '^TestChaos|^TestDegradedTotals' ./internal/core

## streamequiv: the streamed≡batch gate — every experiment over a lake
## built by the live ingest loop (chaos faults + crash/restart on the
## way) must match the batch build byte for byte, every derived file
## must load damaged as its saved value or not at all, plus the ingest
## package's crash-recovery property suite, three times over: its kills
## and damage are seeded, so a run that differs from the last is a bug
## in what a dead incarnation leaves behind, not in the dice. core's and
## serve's concurrency tests run three times too, under the race
## detector in shuffled order, so an interleaving that passes once by
## luck gets two more chances to fail — the day-stamp writers among
## them. And a long-lived pipeline's rollup memory tier must reload only
## the window a rewritten day lies in.
streamequiv:
	$(GO) test -run '^TestStreamedEqualsBatchExperiments|^TestHotDay|^TestPartialFrames|^TestDerivedFilesRejectDamage|^TestOrphanTemps|^TestRollupMemoryTier$$' ./internal/core
	$(GO) test -count=3 ./internal/ingest
	$(GO) test -count=3 -race -shuffle=on -run '^TestConcurrent|^TestHotDayConcurrentReadsDuringIngest$$|^TestDayStampsAcrossWriters$$' ./internal/core
	$(GO) test -count=3 -race -shuffle=on -run '^TestConcurrent|^TestResponseCache' ./internal/serve

## servequiv: the serve-equivalence gate — every /v1/figures response
## must match the golden HTTP corpus byte for byte, equal the batch
## derivation number for number, and appear in the rendered batch
## figure text.
servequiv:
	$(GO) test ./internal/serve -run '^TestServeEquivalenceGolden$$|^TestServedFigures' -count=1

## servequiv-update: regenerate the served-figure golden corpus
## (internal/serve/testdata/golden). Review the diff before committing
## — every change here is a deliberate change to a served figure.
servequiv-update:
	$(GO) test ./internal/serve -run '^TestServeEquivalenceGolden$$' -update-servequiv -count=1
	@echo "regenerated internal/serve/testdata/golden"

## cacheequiv: the cache-equivalence gate — response-cache hits are
## byte-identical to their first computation, every mutation path
## (WriteDay, live-ingest checkpoint/seal, admin compact) invalidates
## against a fresh batch pipeline, a hot-day checkpoint invalidates
## nothing that did not read the hot day (same ETag, no sealed-day
## load), the ETag/If-None-Match round trip holds, and a mid-stream
## damaged day terminates a streamed CSV with the error trailer. Plus
## the three serve-contract regressions (queue-wait deadline, metrics
## format, healthz day-count caching).
cacheequiv:
	$(GO) test ./internal/serve -run '^TestResponseCache|^TestETag|^TestStreaming|^TestAdmin|^TestCheckpointSparesUnreadDays$$|^TestDeadlineIncludesQueueWait$$|^TestMetricsFormatStrict$$|^TestHealthzCachedDayCount$$' -count=1

## scanequiv: the scan-equivalence gate — over one mixed v1/v3 lake
## with a truncated day and a missing day, /v1/scan's summary, buffered
## CSV and streamed CSV and the edgequery command (at decode widths 1
## and 4) return the same tallies, the same rows in the same order and
## the same failed days; a damaged day never leaks its prefix into
## totals and fails every record export; bad command lines exit 2. Plus
## the engine's own error-table tests.
scanequiv:
	$(GO) test ./cmd/edgequery ./internal/scan -count=1

## serve-smoke: boot a real edgeserve process on a free port, probe
## every endpoint class with edgeload -smoke (200s, a 400, a 404, the
## admin token gate in both directions, and an ETag 304 round trip),
## and shut it down — the daemon-side liveness gate.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/edgeserve ./cmd/edgeserve; \
	$(GO) build -o $$tmp/edgeload ./cmd/edgeload; \
	$$tmp/edgeserve -addr 127.0.0.1:0 -addr-file $$tmp/addr -scale small -stride 240 \
		-rollup $$tmp/rollup -admin-token smoke-token 2>$$tmp/log & pid=$$!; \
	for i in $$(seq 100); do [ -f $$tmp/addr ] && break; sleep 0.1; done; \
	[ -f $$tmp/addr ] || { echo "serve-smoke: edgeserve never bound"; cat $$tmp/log; exit 1; }; \
	$$tmp/edgeload -addr "http://$$(cat $$tmp/addr)" -admin-token smoke-token -smoke; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "serve-smoke ok"

## examples: the example programs are documentation that compiles, so
## they must also run — vet them, then run each to completion (all
## four simulate in memory: offline, a few seconds, nothing written).
examples:
	$(GO) vet ./examples/...
	@set -e; for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

## fuzzsmoke: a short fuzz pass over every fuzz target. Each target
## gets -fuzztime seconds of mutation on top of its checked-in corpus;
## crashes fail the gate.
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	internal/flowrec:FuzzDecodeRecord \
	internal/framefile:FuzzLoadDerivedFiles \
	internal/wire:FuzzParsePacket \
	internal/dpi:FuzzTLSClientHello \
	internal/dpi:FuzzDNSDecode \
	internal/dpi:FuzzHTTPRequest \
	internal/dpi:FuzzQUICHeader \
	internal/dpi:FuzzBitTorrent \
	internal/dpi:FuzzLayerParser \
	internal/dpi:FuzzTCPOptions \
	internal/serve:FuzzParseQuery

fuzzsmoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime=$(FUZZTIME) -parallel=4 ./$$pkg >/dev/null || exit 1; \
	done

## golden: regenerate the golden-figure corpus (testdata/golden) from
## the current code. Review the diff before committing — every change
## here is a deliberate change to a published figure.
golden:
	$(GO) test ./internal/core -run '^TestGoldenFigures$$' -update-golden -count=1
	@echo "regenerated internal/core/testdata/golden"

## loc: the three size figures ROADMAP.md and CHANGES.md quote — lines
## of non-test Go outside benchmark/, of non-test Go in benchmark/, and
## of test Go — whole lines, comments and blanks included.
loc:
	@printf 'non-test Go outside benchmark/: %s\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
	@printf 'non-test Go in benchmark/:      %s\n' "$$(find ./benchmark -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
	@printf 'test Go:                        %s\n' "$$(find . -name '*_test.go' | xargs cat | wc -l)"
