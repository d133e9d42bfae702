#!/bin/sh
# Tier-1 verification: build, formatting, vet, full test suite, and a
# race-detector pass over the packages with concurrent hot paths.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test =="
go test ./...

echo "== perfbench (its own module: go test ./... above never compiles it) =="
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

echo "== go test -race (telemetry, export, core, msd, cache, sim, report, history, cluster) =="
go test -race ./internal/telemetry ./internal/telemetry/export \
    ./internal/core ./internal/msd ./internal/cache \
    ./internal/sim ./internal/report ./internal/history ./internal/cluster

echo "== matrix sweep smoke (2x2 grid through the CLI) =="
matrixdir="${TMPDIR:-/tmp}/microsampler-matrix-smoke"
mkdir -p "$matrixdir"
go run ./cmd/microsampler -workload TAGE-HIST \
    -matrix 'prefetch=none,stride;predictor=gshare,tage' \
    -runs 2 -warmup 2 -matrix-parallel -1 \
    -matrix-out "$matrixdir/matrix.json" -matrix-html "$matrixdir/matrix.html"
test -s "$matrixdir/matrix.json"
test -s "$matrixdir/matrix.html"

echo "== diff regression gate smoke (history store + verdict flips) =="
diffdir="${TMPDIR:-/tmp}/microsampler-diff-smoke"
rm -rf "$diffdir"
mkdir -p "$diffdir"
# Baseline sweep, recorded into the history store under label "base".
go run ./cmd/microsampler -workload TAGE-HIST \
    -matrix 'predictor=gshare,tage' -runs 4 -warmup 4 -matrix-parallel -1 \
    -cache-dir "$diffdir/cache" -history-dir "$diffdir/history" -label base \
    -matrix-out "$diffdir/base.json"
# Unchanged re-sweep: replayed from the cache, self-diffs to zero flips
# and exits zero — no false alarms on identical code states.
go run ./cmd/microsampler -workload TAGE-HIST \
    -matrix 'predictor=gshare,tage' -runs 4 -warmup 4 -matrix-parallel -1 \
    -cache-dir "$diffdir/cache" -history-dir "$diffdir/history" -label current \
    -diff-against base -diff-out "$diffdir/diff.json"
grep -q '"regressions": 0' "$diffdir/diff.json"
# Inject a verdict flip by rewriting the baseline artifact all-clean;
# the gate must now exit nonzero and highlight the flip in the HTML.
sed 's/"leaky": true/"leaky": false/g' "$diffdir/base.json" > "$diffdir/all-clean.json"
if go run ./cmd/microsampler -workload TAGE-HIST \
    -matrix 'predictor=gshare,tage' -runs 4 -warmup 4 -matrix-parallel -1 \
    -cache-dir "$diffdir/cache" \
    -diff-baseline "$diffdir/all-clean.json" \
    -diff-out "$diffdir/regress.json" -diff-html "$diffdir/regress.html"; then
    echo "diff gate did not flag the injected verdict flip" >&2
    exit 1
fi
grep -q 'VERDICT FLIP' "$diffdir/regress.html"

echo "== msd daemon smoke (full HTTP lifecycle) =="
go test -race -count=1 -run '^TestSmoke$' ./cmd/msd

echo "== msd kill/recover smoke (SIGKILL + journal recovery) =="
go test -race -count=1 -run '^TestKillRecover$' ./cmd/msd

echo "== cluster smoke (3 processes, SIGKILL a worker mid-batch, baseline verdict diff) =="
go test -race -count=1 -run '^TestClusterSmoke$' ./cmd/msd

echo "== second-signal force-exit smoke =="
go test -race -count=1 -run '^TestSecondSignalForcesExit$' ./cmd/msd

echo "== cluster dispatch walk under -race x20 (dispatcher tests + seeded chaos vs single-node verdicts) =="
go test -race -count=20 -run '^(TestDispatch|TestChaosClusterMatchesSingleNode)' ./internal/cluster

echo "== msd cache-hit + audit smoke; admission hits, twins, stored-artifact recovery, journal-backed history and torn-tail repair under -race x20 =="
go test -race -count=1 \
    -run '^TestCacheHitServesJob$|^TestCacheDiskLayerSurvivesRestart$|^TestAuditLogVerifiesClean$|^TestAuditLogDetectsTampering$' \
    ./internal/msd
go test -race -count=20 \
    -run '^(TestAdmissionAnswersHitWithFullQueue|TestAdmissionHitViewSurvivesRestart|TestTwinTakesNoWorker|TestRecoveryFollowsQueuedTwin|TestConcurrentTwinsVerifyOnce|TestSingleflightDedupesInFlightJobs|TestDaemonRecoveryReloadsArtifacts|TestFailedJobLeavesPostmortem|TestRecoveredRerunCarriesNoStaleError|TestHitAndFollowerWriteNoArtifacts|TestRecoveryReadsRecordedKey|TestDaemonHistoryAndDiff|TestDaemonMatrixDiff|TestHistorySurvivesRestart|TestBatchHistoryFromJournal|TestJournalTornTailRepaired)$' \
    ./internal/msd
go test -race -count=1 -run '^TestAuditVerifyFlag$' ./cmd/msd

echo "== CLI cache replay smoke (byte-identical -json) =="
cachedir="${TMPDIR:-/tmp}/microsampler-cache-smoke"
rm -rf "$cachedir"
mkdir -p "$cachedir"
go run ./cmd/microsampler -workload ME-NAIVE -runs 2 -warmup 2 \
    -config small -json -cache-dir "$cachedir/store" > "$cachedir/first.json"
go run ./cmd/microsampler -workload ME-NAIVE -runs 2 -warmup 2 \
    -config small -json -cache-dir "$cachedir/store" > "$cachedir/second.json"
cmp "$cachedir/first.json" "$cachedir/second.json"

echo "== CLI progress smoke (-progress reads the run probe; stderr reports every run) =="
progressdir="${TMPDIR:-/tmp}/microsampler-progress-smoke"
mkdir -p "$progressdir"
go run ./cmd/microsampler -workload ME-NAIVE -config small -runs 2 -warmup 2 \
    -chart=false -progress > /dev/null 2> "$progressdir/progress.txt"
grep -q 'run 2/2' "$progressdir/progress.txt"

echo "== CLI deadline smoke (an expired -run-timeout fails the run on its only attempt) =="
deadlinedir="${TMPDIR:-/tmp}/microsampler-deadline-smoke"
mkdir -p "$deadlinedir"
if go run ./cmd/microsampler -workload ME-NAIVE -run-timeout 1ns -json \
    > "$deadlinedir/out.json" 2> "$deadlinedir/err.txt"; then
    echo "an expired -run-timeout did not fail the run" >&2
    exit 1
fi
grep -q 'deadline exceeded' "$deadlinedir/err.txt"

echo "== oracle determinism (go test -count=2) =="
go test -count=2 ./internal/oracle

echo "== fuzz smoke (5s per target) =="
go test -run='^$' -fuzz='^FuzzAssemble$' -fuzztime=5s ./internal/asm
go test -run='^$' -fuzz='^FuzzEval$' -fuzztime=5s ./internal/asm
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/isa
go test -run='^$' -fuzz='^FuzzSipHashChunks$' -fuzztime=5s ./internal/siphash
go test -run='^$' -fuzz='^FuzzHashMatrix$' -fuzztime=5s ./internal/snapshot
go test -run='^$' -fuzz='^FuzzHashTimed$' -fuzztime=5s ./internal/trace
go test -run='^$' -fuzz='^FuzzStoreObserve$' -fuzztime=5s ./internal/snapshot
go test -run='^$' -fuzz='^FuzzPipeline$' -fuzztime=5s ./internal/oracle
go test -run='^$' -fuzz='^FuzzCompile$' -fuzztime=5s ./internal/ctc
go test -run='^$' -fuzz='^FuzzMatrixConfig$' -fuzztime=5s ./internal/core
go test -run='^$' -fuzz='^FuzzCacheKey$' -fuzztime=5s ./internal/msd
go test -run='^$' -fuzz='^FuzzJournalReplay$' -fuzztime=5s ./internal/msd

echo "== bench smoke (hot-path collector, catalogue sampling with and without provenance and simulation ns/cycle, simulator allocations per run) =="
go test -run '^$' -bench 'OnCycle' -benchtime 100x -benchmem ./internal/trace
go test -run '^$' -bench 'BenchmarkSamplingCatalogue(Verdict)?$' -benchtime 1x ./internal/trace
go test -run '^$' -bench 'BenchmarkSim(MegaBoom|SmallBoom)$' -benchtime 3x -benchmem ./internal/sim
go test -run '^$' -bench 'BenchmarkSimCatalogue$' -benchtime 1x ./internal/sim

echo "== detection-quality gate (mstest, against the committed calibration baseline) =="
go run ./cmd/mstest run -seeds 5 -quiet -out "${TMPDIR:-/tmp}/microsampler-quality.json" \
    -baseline .github/baselines/quality.json

echo "verify: OK"
