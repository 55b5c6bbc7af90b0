#!/usr/bin/env bash
# Tier-1 verification: build, vet, gofmt, static analysis, doc-comment gate,
# the docs gate (scripts/docs-gate.sh), the dead-surface gate
# (TestDeadSurface), the figure gates (TestFigures on the 8 Mbps cycle,
# then every row recomputed with -update), the durable-primitive
# and dispatch-loop layering gates, the internal/stats coverage floor, the focused dispatch-loop race gate,
# the fuzz smoke gate, the full test suite under the race detector
# (which holds the hot paths to 0 allocs/op),
# a seeded end-to-end acceptance run whose observability artifacts are
# kept for upload and whose rerun must replay it without simulating,
# and a 2x2 sweep-grid smoke asserting the TSV schema.
#
#   scripts/ci.sh          full budget (local pre-merge gate)
#   scripts/ci.sh -short   reduced budget for CI runners: -short tests,
#                          5s fuzz, tighter race timeout
#   scripts/ci.sh -soak    durability soak suite only: the randomized
#                          SIGKILL loop against the real binary plus a
#                          journaled multi-cycle soak run. Gated behind
#                          PRUDENTIA_SOAK=1 so local runs stay fast.
#   scripts/ci.sh -serve   serving smoke: boot the daemon on an
#                          ephemeral port, hit every endpoint, assert
#                          ETag revalidation, byte-compare the daemon's
#                          text report against a batch run at the same
#                          seed, refuse a wrong access code (403),
#                          queue a submission and see both in the
#                          next /metrics scrape, require a graceful
#                          SIGTERM drain, then the
#                          crash-safety gate (randomized SIGKILL
#                          restart loop with a durable submission,
#                          disk-fault chaos campaign) and the serving
#                          layer under the race detector. Failure
#                          leaves daemon logs and responses in
#                          $ARTIFACTS.
#
# Environment:
#   CI_REQUIRE_TOOLS=1   make missing staticcheck/govulncheck fatal
#                        (the GitHub workflow sets this; locally the
#                        tools are optional and skipped with a warning)
#   CI_ARTIFACT_DIR      where failure/acceptance artifacts land
#                        (default ci-artifacts/)
#   PRUDENTIA_SOAK=1     actually run the -soak suite (the GitHub
#                        workflow's soak step sets it; without it -soak
#                        is a no-op skip)
set -euo pipefail
cd "$(dirname "$0")/.."

SHORT=0
SOAK=0
SERVE=0
for arg in "$@"; do
    case "$arg" in
        -short) SHORT=1 ;;
        -soak) SOAK=1 ;;
        -serve) SERVE=1 ;;
        *) echo "usage: scripts/ci.sh [-short|-soak|-serve]" >&2; exit 2 ;;
    esac
done

ARTIFACTS="${CI_ARTIFACT_DIR:-ci-artifacts}"
mkdir -p "$ARTIFACTS"
# Absolute from here on: go test runs in the package's directory, and
# CI_ARTIFACT_DIR may be relative or absolute.
ARTIFACTS="$(cd "$ARTIFACTS" && pwd)"
# Golden-trace failures append the first divergent line here, so a CI
# failure ships the exact point of divergence instead of making the
# investigator re-run the corpus locally.
export GOLDEN_DIVERGENCE_OUT="$ARTIFACTS/golden-divergence.txt"
rm -f "$GOLDEN_DIVERGENCE_OUT"

# Durability soak suite (-soak): exercises the write-ahead journal,
# hung-trial reaper, and circuit breakers against the real binary — the
# randomized kill -9 loop plus a journaled multi-cycle soak run whose
# run directory is $ARTIFACTS/soak. Its checkpoint.json and trials.wal
# hold the last cycle started (a completed cycle keeps both), so after a
# failure they are exactly the post-mortem state worth uploading.
if [ "$SOAK" -eq 1 ]; then
    if [ "${PRUDENTIA_SOAK:-0}" != "1" ]; then
        echo "ci: -soak is gated behind PRUDENTIA_SOAK=1; skipping" >&2
        exit 0
    fi
    go build ./...
    go test -count=1 -timeout 15m -v \
        -run 'TestEndToEndKillLoop|TestEndToEndSoak|TestEndToEndReaperFlag' \
        ./cmd/prudentia
    go run ./cmd/prudentia -cycles 3 -v -setting high -workers 2 -seed 7 \
        -services "iPerf (Cubic),iPerf (BBR)" \
        -dir "$ARTIFACTS/soak" \
        -max-trial-wall 1e6
    [ -s "$ARTIFACTS/soak/manifest.json" ] || {
        echo "ci: soak run produced no manifest" >&2
        exit 1
    }
    echo "ci: soak suite passed"
    exit 0
fi

# Serving smoke (-serve): the daemon is the same engine behind an HTTP
# API, so the assertions are the serving contract itself — readiness
# flips only after the first completed cycle, every artifact carries a
# strong ETag that revalidates to 304, the text report is byte-identical
# to a batch run at the same seed, a submission with a published access
# code queues with 202, and SIGTERM drains to a clean exit. The daemon
# log and every response body stay in $ARTIFACTS for the failure upload.
if [ "$SERVE" -eq 1 ]; then
    go build -o "$ARTIFACTS/prudentia" ./cmd/prudentia
    BIN="$ARTIFACTS/prudentia"
    SERVE_ARGS=(-cycles 1 -setting high -seed 42 -workers 2
                -services "iPerf (Cubic),iPerf (BBR)")

    echo "ci: serve smoke: batch reference run"
    "$BIN" "${SERVE_ARGS[@]}" > "$ARTIFACTS/serve-batch.txt"

    # The daemon alone gets a run directory (-dir is not in SERVE_ARGS,
    # so the batch reference's stdout stays byte-comparable); it writes
    # its bound address to <dir>/addr. The directory starts empty: a
    # daemon's state from an earlier smoke would be resumed, and its
    # address read before the new one is written.
    echo "ci: serve smoke: daemon boot on ephemeral port"
    SERVE_DIR="$ARTIFACTS/serve"
    rm -rf "$SERVE_DIR"
    "$BIN" "${SERVE_ARGS[@]}" -serve -serve-addr 127.0.0.1:0 \
        -dir "$SERVE_DIR" -cycle-interval 1h \
        > "$ARTIFACTS/serve-daemon.log" 2>&1 &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

    for _ in $(seq 300); do
        [ -s "$SERVE_DIR/addr" ] && break
        sleep 0.1
    done
    [ -s "$SERVE_DIR/addr" ] || {
        echo "ci: daemon never published its address" >&2
        cat "$ARTIFACTS/serve-daemon.log" >&2
        exit 1
    }
    BASE="http://$(head -n1 "$SERVE_DIR/addr")"

    # /readyz must gate on the first completed cycle (503 until then,
    # 200 after); the first cycle at this budget takes a few seconds.
    READY=0
    for _ in $(seq 600); do
        if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then
            READY=1
            break
        fi
        sleep 0.1
    done
    [ "$READY" -eq 1 ] || {
        echo "ci: daemon never became ready" >&2
        cat "$ARTIFACTS/serve-daemon.log" >&2
        exit 1
    }
    curl -fsS "$BASE/healthz" > /dev/null

    # Strong ETag + 304 revalidation on the JSON report.
    curl -fsS -D "$ARTIFACTS/serve-report-headers.txt" \
        -o "$ARTIFACTS/serve-report.json" "$BASE/api/v1/report"
    ETAG="$(awk 'tolower($1) == "etag:" { sub(/\r$/, "", $2); print $2 }' \
        "$ARTIFACTS/serve-report-headers.txt")"
    [ -n "$ETAG" ] || { echo "ci: report response carried no ETag" >&2; exit 1; }
    CODE="$(curl -s -o /dev/null -w '%{http_code}' \
        -H "If-None-Match: $ETAG" "$BASE/api/v1/report")"
    [ "$CODE" = "304" ] || {
        echo "ci: If-None-Match revalidation returned $CODE, want 304" >&2
        exit 1
    }

    # The daemon's text report must be byte-identical to the batch run
    # (batch stdout filtered to the report block).
    curl -fsS -o "$ARTIFACTS/serve-report.txt" "$BASE/api/v1/report.txt"
    awk '/^=== cycle/{found=1} found' "$ARTIFACTS/serve-batch.txt" > "$ARTIFACTS/serve-batch-cycle.txt"
    if ! diff -u "$ARTIFACTS/serve-batch-cycle.txt" "$ARTIFACTS/serve-report.txt"; then
        echo "ci: daemon report.txt diverged from the batch run; responses in $ARTIFACTS" >&2
        exit 1
    fi

    # Remaining read endpoints respond with their documented shapes.
    curl -fsS -o "$ARTIFACTS/serve-heatmap.html" "$BASE/api/v1/heatmap"
    grep -q '<table class="heatmap">' "$ARTIFACTS/serve-heatmap.html" || {
        echo "ci: heatmap response is missing its table" >&2
        exit 1
    }
    curl -fsS -o "$ARTIFACTS/serve-faults.jsonl" "$BASE/api/v1/faults"
    curl -fsS -o "$ARTIFACTS/serve-cycles.json" "$BASE/api/v1/cycles"
    grep -q '"latest": 1' "$ARTIFACTS/serve-cycles.json" || {
        echo "ci: cycles index does not report cycle 1 as latest" >&2
        exit 1
    }
    curl -fsS -o "$ARTIFACTS/serve-metrics.prom" "$BASE/metrics"
    grep -q 'prudentia_http_requests_total' "$ARTIFACTS/serve-metrics.prom" || {
        echo "ci: /metrics is missing the HTTP request counters" >&2
        exit 1
    }

    # A wrong access code is refused at the door; the published one
    # queues.
    CODE="$(curl -s -o "$ARTIFACTS/serve-submission-denied.txt" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        -d '{"url":"https://example.com/page","access_code":"wrong","tenant":"ci"}' \
        "$BASE/api/v1/submissions")"
    [ "$CODE" = "403" ] || {
        echo "ci: wrong-code submission returned $CODE, want 403" >&2
        exit 1
    }
    CODE="$(curl -s -o "$ARTIFACTS/serve-submission.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        -d '{"url":"https://example.com/page","access_code":"KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ","tenant":"ci"}' \
        "$BASE/api/v1/submissions")"
    [ "$CODE" = "202" ] || {
        echo "ci: submission returned $CODE, want 202 ($(cat "$ARTIFACTS/serve-submission.json"))" >&2
        exit 1
    }

    # /metrics is live and a single write: the 403 and the 202 above are
    # in the very next scrape (no cached copy to go stale), the reply carries an
    # explicit Content-Length (not chunked) and, because its body changes
    # between requests, no ETag.
    curl -fsS -D "$ARTIFACTS/serve-metrics-headers.txt" \
        -o "$ARTIFACTS/serve-metrics.prom" "$BASE/metrics"
    grep -q '^prudentia_serve_submissions_accepted_total 1$' "$ARTIFACTS/serve-metrics.prom" || {
        echo "ci: /metrics scraped after the 202 does not show the accepted submission" >&2
        exit 1
    }
    grep -q '^prudentia_serve_submissions_denied_total 1$' "$ARTIFACTS/serve-metrics.prom" || {
        echo "ci: /metrics scraped after the 403 does not show the denied submission" >&2
        exit 1
    }
    grep -qi '^content-length:' "$ARTIFACTS/serve-metrics-headers.txt" || {
        echo "ci: /metrics reply carries no Content-Length" >&2
        exit 1
    }
    if grep -qi '^etag:' "$ARTIFACTS/serve-metrics-headers.txt"; then
        echo "ci: /metrics reply carries an ETag" >&2
        exit 1
    fi

    # Graceful drain: SIGTERM → clean exit → drain line in the log.
    kill -TERM "$SERVE_PID"
    SERVE_FAIL=0
    wait "$SERVE_PID" || SERVE_FAIL=$?
    trap - EXIT
    if [ "$SERVE_FAIL" -ne 0 ]; then
        echo "ci: daemon exited $SERVE_FAIL after SIGTERM; log in $ARTIFACTS" >&2
        exit 1
    fi
    grep -q 'serve: drained and stopped' "$ARTIFACTS/serve-daemon.log" || {
        echo "ci: daemon log is missing the graceful-drain line" >&2
        exit 1
    }
    for f in metrics.prom manifest.json; do
        [ -s "$SERVE_DIR/$f" ] || { echo "ci: the drained daemon left no $f in its run directory" >&2; exit 1; }
    done

    # Crash-safety gate: SIGKILL the stateful (-dir) daemon at
    # five randomized, seed-logged points across restarts — the queued
    # submission must survive exactly once and the converged artifacts
    # must be byte-identical to an uninterrupted daemon — plus a full
    # campaign with the -chaos-disk fault plan armed. Daemon logs and
    # state directories stay in $ARTIFACTS on failure.
    echo "ci: serve crash-safety gate (kill-restart loop + disk chaos)"
    if ! PRUDENTIA_E2E_ARTIFACTS="$ARTIFACTS/serve-crash" \
        go test -count=1 -timeout 15m -v \
        -run 'TestServeKillRestartLoop|TestServeDiskChaosSurvives' ./cmd/prudentia; then
        echo "ci: serve crash-safety gate failed; daemon logs in $ARTIFACTS/serve-crash" >&2
        exit 1
    fi
    rm -rf "$ARTIFACTS/serve-crash"

    # The serving layer's concurrency contract — lock-free readers
    # against the scheduler's cache swaps, the drain flag, WAL
    # serialization under tenantTable.mu — under the race detector. The
    # cached handlers' 0 allocs/op contract is the tier-1
    # TestZeroAllocHotPath; their nanoseconds are serve.handler_ns in
    # bench/'s ledger.
    go test -race -count=1 -timeout 10m ./internal/serve

    rm -f "$ARTIFACTS/prudentia" "$ARTIFACTS/serve-batch-cycle.txt"
    echo "ci: serve smoke passed (ETag/304, byte-identical report, 403 and 202 submissions, live /metrics, graceful drain, kill-restart durability, race-clean)"
    exit 0
fi

go build ./...
go vet ./...

# Format gate: gofmt has nothing to say about any file in the tree.
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "ci: gofmt -l names these files (run gofmt -w on them):" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

# Static analysis / vulnerability scan: optional locally (warn + skip
# when the tool is absent), mandatory in the GitHub workflow via
# CI_REQUIRE_TOOLS=1. No network or module downloads happen here beyond
# what the tools themselves need.
run_tool() {
    local tool="$1"
    shift
    if command -v "$tool" >/dev/null 2>&1; then
        echo "ci: running $tool"
        "$tool" "$@"
    elif [ "${CI_REQUIRE_TOOLS:-0}" = "1" ]; then
        echo "ci: $tool not installed but CI_REQUIRE_TOOLS=1 — failing" >&2
        exit 1
    else
        echo "ci: $tool not installed; skipping (set CI_REQUIRE_TOOLS=1 to make this fatal)" >&2
    fi
}
run_tool staticcheck ./...
run_tool govulncheck ./...

# Documentation gate: every package must carry a godoc package comment
# (a comment line immediately preceding the package clause in at least
# one non-test file). ARCHITECTURE.md points readers at these docs;
# keep them present.
missing=0
for dir in internal/*/ cmd/*/ .; do
    ok=0
    any=0
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        any=1
        if awk '/^package /{ if (prev ~ /^(\/\/|\*\/)/) found=1; exit } { prev=$0 }
                END { exit !found }' "$f"; then
            ok=1
            break
        fi
    done
    if [ "$any" -eq 1 ] && [ "$ok" -eq 0 ]; then
        echo "ci: package in $dir has no godoc package comment" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || { echo "ci: doc gate failed" >&2; exit 1; }

# Exported-symbol doc gate: the packages whose invariants other layers
# lean on (the stats stopper's purity, the journal's durability frame)
# must document every
# exported symbol — a top-level exported func, method, type, var, or
# const with no doc comment immediately above it fails the build.
for pkg in internal/stats internal/journal; do
    for f in "$pkg"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        awk -v file="$f" '
            /^(func [A-Z]|func \([^)]*\) [A-Z]|type [A-Z]|var [A-Z]|const [A-Z])/ {
                if (prev !~ /^\/\// && prev !~ /\*\/$/) {
                    sym = $0
                    sub(/[({=].*$/, "", sym)
                    printf "ci: %s:%d: exported symbol has no doc comment: %s\n", file, NR, sym > "/dev/stderr"
                    bad = 1
                }
            }
            { prev = $0 }
            END { exit bad }
        ' "$f" || missing=1
    done
done
[ "$missing" -eq 0 ] || { echo "ci: exported-symbol doc gate failed" >&2; exit 1; }

# Docs gate: the documents that describe the current system name only
# flags some command here defines and tests go test -list prints.
scripts/docs-gate.sh

# Layering gate: internal/journal is the only package that knows the
# frame checksum and the only one that renames a file into place
# (journal.ReplaceFile), so no second copy of the frame codec or of the
# temp->fsync->rename sequence can grow back. The one exemption is the
# cycles/<N> *directory* rename in internal/serve/state.go.
GO_ROOTS="cmd internal bench $(ls ./*.go)"
layer_bad="$(grep -rl --include='*.go' 'hash/crc32' $GO_ROOTS \
    | grep -v '_test\.go$' | grep -v '^internal/journal/' || true)"
if [ -n "$layer_bad" ]; then
    echo "ci: hash/crc32 imported outside internal/journal (use journal.Frame/ScanFrames):" >&2
    echo "$layer_bad" >&2
    exit 1
fi
rename_bad="$(grep -rn --include='*.go' 'os\.Rename(' $GO_ROOTS \
    | grep -v '_test\.go:' | grep -v '^internal/journal/' \
    | grep -v '^internal/serve/state\.go:.*os\.Rename(tmp, final)' || true)"
if [ -n "$rename_bad" ]; then
    echo "ci: os.Rename outside internal/journal (use journal.ReplaceFile):" >&2
    echo "$rename_bad" >&2
    exit 1
fi

# Dispatch-loop gate: internal/core has one task runner (runOrdered,
# parallel.go) that owns the worker spawn and the pool-width clamp, so a
# second hand-rolled pool fails here instead of in review.
pool_bad="$(grep -l -e 'sync\.WaitGroup' -e 'workerCount(' internal/core/*.go \
    | grep -v '_test\.go$' | grep -v '^internal/core/parallel\.go$' || true)"
if [ -n "$pool_bad" ]; then
    echo "ci: sync.WaitGroup / workerCount( outside internal/core/parallel.go (use runOrdered):" >&2
    echo "$pool_bad" >&2
    exit 1
fi

# Statistics coverage floor: internal/stats carries the exact sketch
# and the sequential stopper that every other layer's byte identity
# leans on, so its test coverage may not erode below 85% of statements
# (89.8% when the floor was set, 98.0% once the sketch kept every
# sample, 99.1% once its codec and Merge went).
STATS_COV="$(go test -count=1 -cover ./internal/stats | awk '
    { for (i = 1; i < NF; i++) if ($i == "coverage:") { sub(/%/, "", $(i+1)); print $(i+1) } }')"
[ -n "$STATS_COV" ] || { echo "ci: could not measure internal/stats coverage" >&2; exit 1; }
if ! awk -v c="$STATS_COV" 'BEGIN { exit !(c >= 85) }'; then
    echo "ci: internal/stats coverage ${STATS_COV}% fell below the 85% floor" >&2
    exit 1
fi
echo "ci: internal/stats coverage ${STATS_COV}% (floor 85%)"

# Dead-surface gate: an exported internal/ identifier no non-test code
# uses, an option field nothing sets, one set to a single constant, or a
# struct field non-test code writes and never reads must be deleted or
# listed with a reason in testdata/deadsurface.txt (deadsurface_test.go).
# Each finding prints as "file:line pkg.Symbol rule", each allowlist
# line the checker no longer flags as "stale: pkg.Symbol", and an
# option-field count over the committed one as its message.
if ! go test -count=1 -run 'TestDeadSurface' . > "$ARTIFACTS/deadsurface.log" 2>&1; then
    echo "ci: dead-surface gate failed:" >&2
    findings="$(sed -n -E 's/^[[:space:]]+([^[:space:]]+\.go:[0-9]+ [^[:space:]]+ (dead|unassigned|one value|write-only))$/\1/p' "$ARTIFACTS/deadsurface.log")"
    stale="$(awk '/lists entries the checker no longer flags/ { s = 1; next }
        s && /^[[:space:]]+[^[:space:]]+$/ { print "stale: " $1; next }
        { s = 0 }
        /option structs carry/ { sub(/^[[:space:]]*[^[:space:]]+: /, ""); print }' "$ARTIFACTS/deadsurface.log")"
    if [ -n "$findings$stale" ]; then
        if [ -n "$findings" ]; then echo "$findings" >&2; fi
        if [ -n "$stale" ]; then echo "$stale" >&2; fi
    else
        cat "$ARTIFACTS/deadsurface.log" >&2
    fi
    exit 1
fi
echo "ci: dead-surface gate passed ($(grep -c '^[a-z]' testdata/deadsurface.txt) allowlisted)"

# Figure gate: testdata/figures.json is reproducible and EXPERIMENTS.md
# cites it (figures_test.go). TestFigures recomputes the 8 Mbps cycle's
# rows and one trial row; each row that differs from the artifact, or
# from the number EXPERIMENTS.md cites, prints as
# "id: committed X, recomputed Y" (or "cited Y").
if ! go test -count=1 -run 'TestFigures' . > "$ARTIFACTS/figures.log" 2>&1; then
    echo "ci: figure gate failed:" >&2
    rows="$(sed -n -E 's/^[[:space:]]+figures_test\.go:[0-9]+: (EXPERIMENTS\.md: )?(.*: committed .*, (recomputed|cited) .*)$/\2/p' "$ARTIFACTS/figures.log")"
    if [ -n "$rows" ]; then echo "$rows" >&2; else cat "$ARTIFACTS/figures.log" >&2; fi
    exit 1
fi
echo "ci: figure gate passed ($(grep -c '"id":' testdata/figures.json) rows)"

# Full figure gate: the step above recomputes only the 8 Mbps cycle, so
# Fig 9a/9b (BBRv3 and both BBRv1 trees) and the ablations are checked
# here. TestFigures -update rewrites testdata/figures.json from every
# figure; the result must be the committed bytes. Each row that moved
# prints as a diff line (one row per line), and the committed file is
# restored either way.
cp testdata/figures.json "$ARTIFACTS/figures.committed.json"
FIG_FAIL=0
go test -count=1 -run 'TestFigures' -update . > "$ARTIFACTS/figures-update.log" 2>&1 || FIG_FAIL=1
if [ "$FIG_FAIL" -eq 0 ] && ! cmp -s testdata/figures.json "$ARTIFACTS/figures.committed.json"; then
    echo "ci: recomputing every figure row moved these rows (< committed, > recomputed):" >&2
    diff "$ARTIFACTS/figures.committed.json" testdata/figures.json | grep '^[<>]' >&2 || true
    FIG_FAIL=1
elif [ "$FIG_FAIL" -ne 0 ]; then
    echo "ci: TestFigures -update failed:" >&2
    cat "$ARTIFACTS/figures-update.log" >&2
fi
cp "$ARTIFACTS/figures.committed.json" testdata/figures.json
[ "$FIG_FAIL" -eq 0 ] || exit 1
echo "ci: full figure gate passed (every row recomputed byte-identical)"

# Focused race gate for the one dispatch loop: the runner's own contract
# test plus the determinism and interrupt/resume tests, which double as
# the data-race probes for the worker spawn, the ordered merge, and the
# shared fault ledger.
if [ "$SHORT" -eq 1 ]; then
    go test -race -count=1 -timeout 10m -short -run 'RunOrdered|Parallel|Determinism' ./internal/core
else
    go test -race -count=1 -timeout 10m -run 'RunOrdered|Parallel|Determinism' ./internal/core
fi

# Fuzz smoke gate: randomized operation sequences against the drop-tail
# queue's structural invariants (occupancy, FIFO, byte conservation),
# against the event engine's ordering contract (delay lines and lazy
# timers dispatch exactly as the heap-only oracle does) and against the
# receiver's map model (the receive set's ring), and arbitrary
# bytes against the parsers that read the network, the disk and the
# command line — the frame scanner, trial-journal recovery (every rerun
# of a -dir replays it), submission-WAL recovery, the submissions
# route's request body, the checkpoint header a resumed cycle trusts,
# and parseConfig (flags, the -sweep grid) — so
# they see more than their seed corpus. Long exploratory campaigns run
# out-of-band; this catches gross regressions on every CI pass.
# Every Fuzz target the module defines is in FUZZ_GATE: a new target,
# or one a gate line lost, fails here instead of going unrun.
FUZZTIME=10s
if [ "$SHORT" -eq 1 ]; then FUZZTIME=5s; fi
FUZZ_GATE=(
    "./internal/netem FuzzBottleneckQueue"
    "./internal/sim FuzzEngineOrder"
    "./internal/transport FuzzRcvSet"
    "./internal/journal FuzzFrameScanner"
    "./internal/journal FuzzScan"
    "./internal/serve FuzzSubsWALOpen"
    "./internal/serve FuzzSubmissionBody"
    "./internal/core FuzzLoadCheckpoint"
    "./cmd/prudentia FuzzParseConfig"
)
FUZZ_LISTED="$(go test -list '^Fuzz' ./... | grep '^Fuzz' | sort)"
FUZZ_GATED="$(printf '%s\n' "${FUZZ_GATE[@]}" | awk '{ print $2 }' | sort)"
if [ "$FUZZ_LISTED" != "$FUZZ_GATED" ]; then
    echo "ci: the fuzz smoke gate and go test -list '^Fuzz' disagree (<: listed only, >: gated only):" >&2
    diff <(echo "$FUZZ_LISTED") <(echo "$FUZZ_GATED") | grep '^[<>]' >&2
    exit 1
fi
for target in "${FUZZ_GATE[@]}"; do
    go test -run '^$' -fuzz "^${target#* }\$" -fuzztime="$FUZZTIME" "${target%% *}"
done
echo "ci: fuzz smoke gate ran all $(echo "$FUZZ_LISTED" | wc -l) Fuzz targets"

# The race detector slows the simulation-heavy core tests well past the
# default 10m per-package budget. -short trims the slowest e2e tests on
# CI runners; the full budget stays the local pre-merge gate.
if [ "$SHORT" -eq 1 ]; then
    go test -race -count=1 -timeout 25m -short ./...
else
    go test -race -count=1 -timeout 45m ./...
fi

# Seeded end-to-end acceptance run: two quick cycles of the real binary
# under fault injection with the full observability surface enabled,
# $ARTIFACTS as its run directory. The artifacts (metrics, timeline,
# manifest, fault ledger) are kept for upload; the reconciliation logic
# itself is asserted by cmd/prudentia's end-to-end tests above — this
# proves the shipped binary produces them outside the test harness too.
# A cycle an earlier run left in $ARTIFACTS would be replayed, not
# simulated, so the first run starts from an empty header and journal.
ACCEPT_ARGS=(-cycles 2 -chaos -setting high -workers 4 -seed 42
             -services "iPerf (Cubic),iPerf (BBR)" -dir "$ARTIFACTS")
rm -f "$ARTIFACTS/checkpoint.json" "$ARTIFACTS/trials.wal"
go run ./cmd/prudentia "${ACCEPT_ARGS[@]}" | tee "$ARTIFACTS/accept.txt"
for f in metrics.prom timeline.jsonl manifest.json checkpoint.json trials.wal faults.jsonl; do
    [ -s "$ARTIFACTS/$f" ] || { echo "ci: acceptance run produced no $f" >&2; exit 1; }
done
# A completed cycle stays in its run directory: rerunning the same
# command re-renders the last one, cycle 2, by replaying the journal,
# simulating nothing. Its report from the cycle 2 banner on and its
# fault ledger (cycle 2's events alone) must be the same bytes, and the
# manifest's journal must show no record appended and every recovered
# one replayed.
cp "$ARTIFACTS/faults.jsonl" "$ARTIFACTS/accept-faults.jsonl"
go run ./cmd/prudentia "${ACCEPT_ARGS[@]}" > "$ARTIFACTS/accept-rerun.txt"
cmp <(awk '/^=== cycle 2 /{f=1} f' "$ARTIFACTS/accept.txt") \
    <(awk '/^=== cycle 2 /{f=1} f' "$ARTIFACTS/accept-rerun.txt") || {
    echo "ci: rerun of the finished acceptance run printed another report" >&2
    exit 1
}
cmp "$ARTIFACTS/accept-faults.jsonl" "$ARTIFACTS/faults.jsonl" || {
    echo "ci: rerun of the finished acceptance run wrote another fault ledger" >&2
    exit 1
}
ACCEPT_JOURNAL="$(sed -n '/"journal": {/,/}/p' "$ARTIFACTS/manifest.json")"
journal_field() { sed -n -E "s/.*\"$1\": ([0-9]+).*/\1/p" <<<"$ACCEPT_JOURNAL"; }
if [ "$(journal_field records)" != 0 ] || [ "$(journal_field replayed)" != "$(journal_field recovered)" ] ||
    [ "$(journal_field replayed)" -le 0 ]; then
    echo "ci: rerun of the finished acceptance run did not replay it whole:" >&2
    echo "$ACCEPT_JOURNAL" >&2
    exit 1
fi
echo "ci: acceptance artifacts in $ARTIFACTS/; the rerun replayed $(journal_field replayed) attempts"

# Sweep smoke: a 2x2 grid (2 rates x 2 RTTs, one queue depth, two CCAs)
# through the real -sweep driver via its scripts/sweep.sh wrapper. The
# TSV header is the sweep pipeline's public schema — sweep.go documents
# that it may only be extended together with this assertion — and the
# row count pins the grid shape: 4 cells x 3 pairs x 2 slots. A sweep is
# one cycle, so its run directory also gets the cycle's timeline and
# fault ledger.
SWEEP_RATES="8,50" SWEEP_RTTS="25,50" SWEEP_QUEUES="64" \
    SWEEP_CCAS="iPerf (Cubic),iPerf (BBR)" \
    SWEEP_DIR="$ARTIFACTS/sweep" SWEEP_SEED=42 \
    scripts/sweep.sh -workers 4
for f in sweep/timeline.jsonl sweep/faults.jsonl; do
    [ -e "$ARTIFACTS/$f" ] || { echo "ci: sweep smoke produced no $f" >&2; exit 1; }
done
SWEEP_HEADER="$(printf 'rate_mbps\trtt_ms\tqueue_pkts\tincumbent\tcontender\tslot\tservice\tn\tmedian_share_pct\tiqr_share_pct\tci_lo_pct\tci_hi_pct\tverdict')"
if [ "$(head -n1 "$ARTIFACTS/sweep/sweep.tsv")" != "$SWEEP_HEADER" ]; then
    echo "ci: sweep TSV header diverged from the documented schema" >&2
    exit 1
fi
SWEEP_ROWS=$(($(wc -l < "$ARTIFACTS/sweep/sweep.tsv") - 1))
[ "$SWEEP_ROWS" -eq 24 ] || {
    echo "ci: sweep smoke produced $SWEEP_ROWS rows, want 24 (4 cells x 3 pairs x 2 slots)" >&2
    exit 1
}
grep -q '"schema": "prudentia.sweep/2"' "$ARTIFACTS/sweep/sweep.json" || {
    echo "ci: sweep JSON missing the prudentia.sweep/2 schema marker" >&2
    exit 1
}
SWEEP_MERGED="$(grep -c '"merged_share_pct": \[' "$ARTIFACTS/sweep/sweep.json" || true)"
[ "$SWEEP_MERGED" -eq 4 ] || {
    echo "ci: sweep JSON carries merged_share_pct in $SWEEP_MERGED cells, want all 4" >&2
    exit 1
}
echo "ci: sweep smoke passed (TSV schema + 24 rows + JSON schema marker + 4 merged_share_pct arrays + timeline + fault ledger)"
