#!/usr/bin/env bash
# Tier-1 verification: build, vet, gofmt, static analysis, doc-comment gate,
# the docs gate (scripts/docs-gate.sh), the durable-primitive and dispatch-loop layering gates, the
# internal/stats coverage floor, the focused dispatch-loop race gate,
# the fuzz smoke gate, the full test suite under the race detector
# (which holds the hot paths to 0 allocs/op and sketch state to O(1)),
# a seeded end-to-end acceptance run whose observability artifacts are
# kept for upload, and a 2x2 sweep-grid smoke asserting the TSV schema.
#
#   scripts/ci.sh          full budget (local pre-merge gate)
#   scripts/ci.sh -short   reduced budget for CI runners: -short tests,
#                          5s fuzz, tighter race timeout
#   scripts/ci.sh -soak    durability soak suite only: the randomized
#                          SIGKILL loop against the real binary plus a
#                          journaled multi-cycle soak run. Gated behind
#                          PRUDENTIA_SOAK=1 so local runs stay fast.
#   scripts/ci.sh -fleet   fleet distribution smoke: loopback
#                          coordinator + 2 worker processes, one worker
#                          SIGKILLed and restarted mid-cycle, the
#                          coordinator's report byte-compared against a
#                          serial run. Failure leaves the fleet timeline
#                          and worker logs in $ARTIFACTS.
#   scripts/ci.sh -serve   serving smoke: boot the daemon on an
#                          ephemeral port, hit every endpoint, assert
#                          ETag revalidation, byte-compare the daemon's
#                          text report against a batch run at the same
#                          seed, queue a submission and see it in the
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
FLEET=0
SERVE=0
for arg in "$@"; do
    case "$arg" in
        -short) SHORT=1 ;;
        -soak) SOAK=1 ;;
        -fleet) FLEET=1 ;;
        -serve) SERVE=1 ;;
        *) echo "usage: scripts/ci.sh [-short|-soak|-fleet|-serve]" >&2; exit 2 ;;
    esac
done

ARTIFACTS="${CI_ARTIFACT_DIR:-ci-artifacts}"
mkdir -p "$ARTIFACTS"
# Golden-trace failures append the first divergent line here, so a CI
# failure ships the exact point of divergence instead of making the
# investigator re-run the corpus locally.
export GOLDEN_DIVERGENCE_OUT="$PWD/$ARTIFACTS/golden-divergence.txt"
rm -f "$GOLDEN_DIVERGENCE_OUT"

# Durability soak suite (-soak): exercises the write-ahead journal,
# hung-trial reaper, and circuit breakers against the real binary — the
# randomized kill -9 loop plus a journaled multi-cycle soak run whose
# durability files land in $ARTIFACTS. A completed cycle deletes its
# journal and checkpoint, so any soak-* file left behind after a
# failure is exactly the post-mortem state worth uploading.
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
        -journal "$ARTIFACTS/soak-trials.wal" \
        -checkpoint "$ARTIFACTS/soak-state.json" \
        -max-trial-wall 1e6 \
        -faults-out "$ARTIFACTS/soak-faults.jsonl" \
        -manifest "$ARTIFACTS/soak-manifest.json"
    [ -s "$ARTIFACTS/soak-manifest.json" ] || {
        echo "ci: soak run produced no manifest" >&2
        exit 1
    }
    echo "ci: soak suite passed"
    exit 0
fi

# Fleet distribution smoke (-fleet): one quick cycle sharded over a
# loopback coordinator and two worker processes, with one worker
# SIGKILLed and restarted mid-cycle. The coordinator's report (and the
# fact that it finishes at all) is the assertion: worker death re-queues
# leased pairs, the survivor re-executes them deterministically, and the
# merged output must equal a serial single-process run byte for byte.
# Worker logs and the fleet timeline stay in $ARTIFACTS on failure.
if [ "$FLEET" -eq 1 ]; then
    go build -o "$ARTIFACTS/prudentia" ./cmd/prudentia
    BIN="$ARTIFACTS/prudentia"
    FLEET_ARGS=(-cycles 1 -setting high -seed 23
                -services "iPerf (Reno),iPerf (Cubic),iPerf (BBR)")

    echo "ci: fleet smoke: serial reference run"
    "$BIN" "${FLEET_ARGS[@]}" > "$ARTIFACTS/fleet-serial.txt"
    # The same arguments are pinned in tier 1 (TestQuickReportPinned), so
    # the reference the fleet is held to is itself held to a committed file.
    if ! diff -u cmd/prudentia/testdata/quick-high-seed23.txt "$ARTIFACTS/fleet-serial.txt"; then
        echo "ci: serial reference diverged from the pinned report" >&2
        exit 1
    fi

    echo "ci: fleet smoke: coordinator + 2 workers (one SIGKILLed mid-cycle)"
    rm -f "$ARTIFACTS/fleet-addr.txt"
    "$BIN" "${FLEET_ARGS[@]}" -coordinator -listen 127.0.0.1:0 \
        -listen-addr-file "$ARTIFACTS/fleet-addr.txt" -expect-workers 2 \
        -timeline "$ARTIFACTS/fleet-timeline.jsonl" \
        -manifest "$ARTIFACTS/fleet-manifest.json" \
        > "$ARTIFACTS/fleet-report.txt" 2> "$ARTIFACTS/fleet-coordinator.log" &
    COORD_PID=$!

    for _ in $(seq 100); do
        [ -s "$ARTIFACTS/fleet-addr.txt" ] && break
        sleep 0.1
    done
    [ -s "$ARTIFACTS/fleet-addr.txt" ] || {
        echo "ci: fleet coordinator never published its address" >&2
        cat "$ARTIFACTS/fleet-coordinator.log" >&2
        exit 1
    }
    ADDR="$(head -n1 "$ARTIFACTS/fleet-addr.txt")"

    start_worker() {
        "$BIN" "${FLEET_ARGS[@]}" -connect "$ADDR" -worker-name "$1" \
            >> "$ARTIFACTS/fleet-$1.log" 2>&1 &
        echo $!
    }
    W1_PID=$(start_worker worker1)
    W2_PID=$(start_worker worker2)

    # SIGKILL worker1 mid-cycle, then restart it: its leased pairs are
    # re-queued, and the rejoined process picks up fresh assignments.
    sleep 0.4
    kill -9 "$W1_PID" 2>/dev/null || true
    W1_PID=$(start_worker worker1)

    FLEET_FAIL=0
    wait "$COORD_PID" || FLEET_FAIL=$?
    kill -9 "$W1_PID" "$W2_PID" 2>/dev/null || true
    wait "$W1_PID" "$W2_PID" 2>/dev/null || true
    if [ "$FLEET_FAIL" -ne 0 ]; then
        echo "ci: fleet coordinator exited $FLEET_FAIL; logs in $ARTIFACTS" >&2
        exit 1
    fi

    # Byte-compare from the cycle banner on (preamble chatter differs by
    # construction; fleet membership lines are on stderr, not in here).
    awk '/^=== cycle/{found=1} found' "$ARTIFACTS/fleet-serial.txt" > "$ARTIFACTS/fleet-serial-cycle.txt"
    awk '/^=== cycle/{found=1} found' "$ARTIFACTS/fleet-report.txt" > "$ARTIFACTS/fleet-report-cycle.txt"
    if ! diff -u "$ARTIFACTS/fleet-serial-cycle.txt" "$ARTIFACTS/fleet-report-cycle.txt"; then
        echo "ci: fleet report diverged from serial run; logs in $ARTIFACTS" >&2
        exit 1
    fi
    grep -q "re-queued" "$ARTIFACTS/fleet-coordinator.log" || {
        echo "ci: SIGKILL landed after the cycle finished (no re-queue observed); smoke still byte-identical" >&2
    }
    rm -f "$ARTIFACTS/prudentia" "$ARTIFACTS/fleet-serial-cycle.txt" "$ARTIFACTS/fleet-report-cycle.txt"
    echo "ci: fleet smoke passed (report byte-identical to serial)"
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

    echo "ci: serve smoke: daemon boot on ephemeral port"
    rm -f "$ARTIFACTS/serve-addr.txt"
    "$BIN" "${SERVE_ARGS[@]}" -serve -serve-addr 127.0.0.1:0 \
        -serve-addr-file "$ARTIFACTS/serve-addr.txt" -cycle-interval 1h \
        > "$ARTIFACTS/serve-daemon.log" 2>&1 &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

    for _ in $(seq 300); do
        [ -s "$ARTIFACTS/serve-addr.txt" ] && break
        sleep 0.1
    done
    [ -s "$ARTIFACTS/serve-addr.txt" ] || {
        echo "ci: daemon never published its address" >&2
        cat "$ARTIFACTS/serve-daemon.log" >&2
        exit 1
    }
    BASE="http://$(head -n1 "$ARTIFACTS/serve-addr.txt")"

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
    # (batch stdout filtered to the report block, same as -fleet).
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

    # Submissions queue behind the published access code.
    CODE="$(curl -s -o "$ARTIFACTS/serve-submission.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        -d '{"url":"https://example.com/page","access_code":"KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ","tenant":"ci"}' \
        "$BASE/api/v1/submissions")"
    [ "$CODE" = "202" ] || {
        echo "ci: submission returned $CODE, want 202 ($(cat "$ARTIFACTS/serve-submission.json"))" >&2
        exit 1
    }

    # /metrics is live and a single write: the 202 above is in the very
    # next scrape (no cached copy to go stale), the reply carries an
    # explicit Content-Length (not chunked) and, because its body changes
    # between requests, no ETag.
    curl -fsS -D "$ARTIFACTS/serve-metrics-headers.txt" \
        -o "$ARTIFACTS/serve-metrics.prom" "$BASE/metrics"
    grep -q '^prudentia_serve_submissions_accepted_total 1$' "$ARTIFACTS/serve-metrics.prom" || {
        echo "ci: /metrics scraped after the 202 does not show the accepted submission" >&2
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

    # Crash-safety gate: SIGKILL the stateful (-serve-dir) daemon at
    # five randomized, seed-logged points across restarts — the queued
    # submission must survive exactly once and the converged artifacts
    # must be byte-identical to an uninterrupted daemon — plus a full
    # campaign with the -chaos-disk fault plan armed. Daemon logs and
    # state directories stay in $ARTIFACTS on failure.
    echo "ci: serve crash-safety gate (kill-restart loop + disk chaos)"
    if ! PRUDENTIA_E2E_ARTIFACTS="$PWD/$ARTIFACTS/serve-crash" \
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
    echo "ci: serve smoke passed (ETag/304, byte-identical report, 202 submission, live /metrics, graceful drain, kill-restart durability, race-clean)"
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
# lean on (the stats stopper's purity, the fleet protocol's byte
# identity, the journal's durability frame) must document every
# exported symbol — a top-level exported func, method, type, var, or
# const with no doc comment immediately above it fails the build.
for pkg in internal/stats internal/fleet internal/journal; do
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
GO_ROOTS="cmd internal bench examples $(ls ./*.go)"
layer_bad="$(grep -rl --include='*.go' 'hash/crc32' $GO_ROOTS \
    | grep -v '_test\.go$' | grep -v '^internal/journal/' || true)"
if [ -n "$layer_bad" ]; then
    echo "ci: hash/crc32 imported outside internal/journal (use journal.Frame/ScanFrames/ReadFrame):" >&2
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

# Statistics coverage floor: internal/stats carries the quantile sketch
# codec and the sequential stopper that every other layer's byte
# identity leans on, so its test coverage may not erode below 85% of
# statements (89.8% when the floor was set).
STATS_COV="$(go test -count=1 -cover ./internal/stats | awk '
    { for (i = 1; i < NF; i++) if ($i == "coverage:") { sub(/%/, "", $(i+1)); print $(i+1) } }')"
[ -n "$STATS_COV" ] || { echo "ci: could not measure internal/stats coverage" >&2; exit 1; }
if ! awk -v c="$STATS_COV" 'BEGIN { exit !(c >= 85) }'; then
    echo "ci: internal/stats coverage ${STATS_COV}% fell below the 85% floor" >&2
    exit 1
fi
echo "ci: internal/stats coverage ${STATS_COV}% (floor 85%)"

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
# queue's structural invariants (occupancy, FIFO, byte conservation) and
# against the event engine's ordering contract (delay lines and lazy
# timers dispatch exactly as the heap-only oracle does), and arbitrary
# bytes against the parsers that read the network, the disk and the
# command line — the frame readers, submission-WAL recovery, the
# submissions route's request body, the two readers a resumed cycle
# trusts (the checkpoint header, the journaled pair record) and
# parseConfig (flags, the -sweep grid) — so they see more than their
# seed corpus. Long exploratory campaigns run
# out-of-band; this catches gross regressions on every CI pass.
FUZZTIME=10s
if [ "$SHORT" -eq 1 ]; then FUZZTIME=5s; fi
go test -run '^$' -fuzz '^FuzzBottleneckQueue$' -fuzztime="$FUZZTIME" ./internal/netem
go test -run '^$' -fuzz '^FuzzEngineOrder$' -fuzztime="$FUZZTIME" ./internal/sim
go test -run '^$' -fuzz '^FuzzFrameScanner$' -fuzztime="$FUZZTIME" ./internal/journal
go test -run '^$' -fuzz '^FuzzSubsWALOpen$' -fuzztime="$FUZZTIME" ./internal/serve
go test -run '^$' -fuzz '^FuzzSubmissionBody$' -fuzztime="$FUZZTIME" ./internal/serve
go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime="$FUZZTIME" ./internal/core
go test -run '^$' -fuzz '^FuzzPairRecord$' -fuzztime="$FUZZTIME" ./internal/core
go test -run '^$' -fuzz '^FuzzParseConfig$' -fuzztime="$FUZZTIME" ./cmd/prudentia

# The race detector slows the simulation-heavy core tests well past the
# default 10m per-package budget. -short trims the slowest e2e tests on
# CI runners; the full budget stays the local pre-merge gate.
if [ "$SHORT" -eq 1 ]; then
    go test -race -count=1 -timeout 25m -short ./...
else
    go test -race -count=1 -timeout 45m ./...
fi

# Seeded end-to-end acceptance run: one quick cycle of the real binary
# with the full observability surface enabled. The artifacts (metrics,
# timeline, manifest) are kept for upload; the reconciliation logic
# itself is asserted by cmd/prudentia's end-to-end tests above — this
# proves the shipped binary produces them outside the test harness too.
go run ./cmd/prudentia -cycles 1 -setting high -workers 4 -seed 42 \
    -services "iPerf (Cubic),iPerf (BBR)" \
    -metrics-out "$ARTIFACTS/metrics.prom" \
    -timeline "$ARTIFACTS/timeline.jsonl" \
    -manifest "$ARTIFACTS/manifest.json" \
    -faults-out "$ARTIFACTS/faults.jsonl"
for f in metrics.prom timeline.jsonl manifest.json; do
    [ -s "$ARTIFACTS/$f" ] || { echo "ci: acceptance run produced no $f" >&2; exit 1; }
done
echo "ci: acceptance artifacts in $ARTIFACTS/"

# Sweep smoke: a 2x2 grid (2 rates x 2 RTTs, one queue depth, two CCAs)
# through the real -sweep driver via its scripts/sweep.sh wrapper. The
# TSV header is the sweep pipeline's public schema — sweep.go documents
# that it may only be extended together with this assertion — and the
# row count pins the grid shape: 4 cells x 3 pairs x 2 slots.
SWEEP_RATES="8,50" SWEEP_RTTS="25,50" SWEEP_QUEUES="64" \
    SWEEP_CCAS="iPerf (Cubic),iPerf (BBR)" \
    SWEEP_OUT="$ARTIFACTS/sweep-smoke" SWEEP_SEED=42 \
    scripts/sweep.sh -workers 4
SWEEP_HEADER="$(printf 'rate_mbps\trtt_ms\tqueue_pkts\tincumbent\tcontender\tslot\tservice\tn\tmedian_share_pct\tiqr_share_pct\tci_lo_pct\tci_hi_pct\tverdict')"
if [ "$(head -n1 "$ARTIFACTS/sweep-smoke.tsv")" != "$SWEEP_HEADER" ]; then
    echo "ci: sweep TSV header diverged from the documented schema" >&2
    exit 1
fi
SWEEP_ROWS=$(($(wc -l < "$ARTIFACTS/sweep-smoke.tsv") - 1))
[ "$SWEEP_ROWS" -eq 24 ] || {
    echo "ci: sweep smoke produced $SWEEP_ROWS rows, want 24 (4 cells x 3 pairs x 2 slots)" >&2
    exit 1
}
grep -q '"schema": "prudentia.sweep/1"' "$ARTIFACTS/sweep-smoke.json" || {
    echo "ci: sweep JSON missing the prudentia.sweep/1 schema marker" >&2
    exit 1
}
echo "ci: sweep smoke passed (TSV schema + 24 rows + JSON schema marker)"
