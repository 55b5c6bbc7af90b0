#!/usr/bin/env bash
# Benchmark driver for the single-component gates (the end-to-end
# benchmark, worker pool included, is bench/run.sh). A mode is required:
#
#   scripts/bench.sh sim [benchtime]
#                                  hot-path benchmarks (BenchmarkEngine*,
#                                  BenchmarkDelayLine, BenchmarkBottleneck*,
#                                  BenchmarkBBROnAckFullWindow) -> BENCH_sim.json, one JSON
#                                  object per line with the pre-optimization baseline
#                                  (scripts/bench_baseline_sim.json) and the speedup
#                                  against it
#
#   scripts/bench.sh -check        regression gate: re-run the hot-path benchmarks
#                                  (-count=3, min per benchmark) and fail if any
#                                  ns/op regresses more than 10% over the committed
#                                  BENCH_sim.json, or any allocs/op exceeds it
#
#   scripts/bench.sh adaptive [benchtime]
#                                  adaptive trial-budget benchmark
#                                  (BenchmarkAdaptiveMatrix): the same matrix under
#                                  the fixed protocol and under adaptive stopping
#                                  -> BENCH_adaptive.json (trials/cycle and
#                                  simsec/wallsec per mode, trials_saved_pct).
#                                  Fails if the saving is under the 30% acceptance
#                                  floor.
#
#   scripts/bench.sh stats [benchtime]
#                                  sketch statistics gate (BenchmarkSketchAdd,
#                                  BenchmarkSketchState) -> BENCH_stats.json.
#                                  Fails if the compacted-regime Add hot path
#                                  allocates at all, or if per-sketch encoded
#                                  state grows more than 1.25x when the trial
#                                  count grows 10x (the O(1) per-pair statistics
#                                  memory acceptance gate; the raw ledger would
#                                  grow 10x).
set -euo pipefail
cd "$(dirname "$0")/.."

SIM_PKGS="./internal/sim ./internal/netem ./internal/cca"
SIM_PATTERN='BenchmarkEngine|BenchmarkDelayLine|BenchmarkBottleneck|BenchmarkBBROnAckFullWindow'
SIM_OUT="BENCH_sim.json"
SIM_BASELINE="scripts/bench_baseline_sim.json"

# json_field FILE BENCH FIELD — pull a numeric field out of a line-oriented
# JSON file ({"benchmark":"Name",...} per line). Prints nothing if absent.
json_field() {
    awk -v bench="$2" -v field="$3" '
        index($0, "\"benchmark\":\"" bench "\"") {
            if (match($0, "\"" field "\":[0-9.]+")) {
                v = substr($0, RSTART, RLENGTH)
                sub(/^[^:]*:/, "", v)
                print v
            }
        }' "$1"
}

# run_sim_bench COUNT BENCHTIME RAWFILE — run the hot-path benchmarks and
# reduce to "name ns_op bytes_op allocs_op simsec_wallsec" lines, taking the
# min ns/op (max simsec/wallsec) across repetitions.
run_sim_bench() {
    local raw="$3"
    go test -run '^$' -bench "$SIM_PATTERN" -benchtime "$2" -count="$1" \
        $SIM_PKGS | tee /dev/stderr | awk '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = by = al = -1; sw = -1
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i + 0
            if ($(i+1) == "B/op") by = $i + 0
            if ($(i+1) == "allocs/op") al = $i + 0
            if ($(i+1) == "simsec/wallsec") sw = $i + 0
        }
        if (!(name in best) || ns < best[name]) best[name] = ns
        if (by >= 0) bytes[name] = by
        if (al >= 0) allocs[name] = al
        if (sw >= 0 && (!(name in sweep) || sw > sweep[name])) sweep[name] = sw
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
    END {
        for (i = 1; i <= n; i++) {
            name = order[i]
            printf "%s %.2f %d %d %.1f\n", name, best[name], bytes[name], allocs[name], \
                (name in sweep ? sweep[name] : -1)
        }
    }' > "$raw"
}

sim_mode() {
    local benchtime="${1:-1s}"
    RAWTMP="$(mktemp)"
    trap 'rm -f "$RAWTMP"' EXIT
    local raw="$RAWTMP"
    run_sim_bench 3 "$benchtime" "$raw"
    : > "$SIM_OUT"
    while read -r name ns by al sw; do
        base_ns="$(json_field "$SIM_BASELINE" "$name" ns_op)"
        base_al="$(json_field "$SIM_BASELINE" "$name" allocs_op)"
        line="{\"benchmark\":\"$name\",\"ns_op\":$ns,\"bytes_op\":$by,\"allocs_op\":$al"
        if [ "${sw%.*}" != "-1" ]; then
            line="$line,\"simsec_wallsec\":$sw"
        fi
        if [ -n "$base_ns" ]; then
            speedup="$(awk -v b="$base_ns" -v c="$ns" 'BEGIN { printf "%.2f", (c > 0 ? b / c : 0) }')"
            line="$line,\"baseline_ns_op\":$base_ns,\"baseline_allocs_op\":${base_al:-0},\"speedup\":$speedup"
        fi
        echo "$line}" >> "$SIM_OUT"
    done < "$raw"
    echo
    echo "wrote $SIM_OUT:"
    cat "$SIM_OUT"
}

# check_mode fails LOUDLY on every degenerate input. The old version
# passed vacuously when the benchmark run produced no parseable lines
# (the while-read loop simply never executed); now an empty result set,
# a missing baseline, a malformed baseline line, and a baseline
# benchmark missing from the fresh run are each hard failures.
#
# Test/CI hooks (all optional):
#   BENCH_SIM_OUT        baseline JSON to check against (default BENCH_sim.json)
#   BENCH_CHECK_RAW      pre-reduced "name ns bytes allocs simsec" file to
#                        check instead of re-running the benchmarks
#   BENCH_CHECK_RAW_OUT  also copy the fresh reduction here (CI keeps it
#                        as the candidate artifact when the gate fails)
#   BENCH_NS_TOLERANCE   allowed ns/op ratio vs baseline (default 1.10)
check_mode() {
    local sim_out="${BENCH_SIM_OUT:-$SIM_OUT}"
    local tol="${BENCH_NS_TOLERANCE:-1.10}"
    [ -f "$sim_out" ] || { echo "bench-check: no committed $sim_out to check against; run 'scripts/bench.sh sim' first" >&2; exit 1; }

    # Validate the baseline before trusting it: every line must carry a
    # benchmark name plus numeric ns_op and allocs_op.
    local baseline_names
    baseline_names="$(awk '
        NF == 0 { next }
        {
            if (match($0, /"benchmark":"[^"]+"/) && $0 ~ /"ns_op":[0-9.]+/ && $0 ~ /"allocs_op":[0-9]+/) {
                v = substr($0, RSTART, RLENGTH)
                sub(/^"benchmark":"/, "", v); sub(/"$/, "", v)
                print v
            } else {
                print "__MALFORMED__"
            }
        }' "$sim_out")"
    if [ -z "$baseline_names" ]; then
        echo "bench-check: $sim_out is empty — not a valid baseline (re-run 'scripts/bench.sh sim')" >&2
        exit 1
    fi
    if printf '%s\n' "$baseline_names" | grep -q '^__MALFORMED__$'; then
        echo "bench-check: $sim_out is malformed (line without benchmark/ns_op/allocs_op); refusing to pass vacuously" >&2
        exit 1
    fi

    local raw
    if [ -n "${BENCH_CHECK_RAW:-}" ]; then
        raw="$BENCH_CHECK_RAW"
        [ -f "$raw" ] || { echo "bench-check: BENCH_CHECK_RAW=$raw does not exist" >&2; exit 1; }
    else
        RAWTMP="$(mktemp)"
        trap 'rm -f "$RAWTMP"' EXIT
        raw="$RAWTMP"
        run_sim_bench 3 1s "$raw"
    fi
    if [ -n "${BENCH_CHECK_RAW_OUT:-}" ]; then
        cp -f "$raw" "$BENCH_CHECK_RAW_OUT"
    fi
    if [ ! -s "$raw" ]; then
        echo "bench-check: benchmark run produced no results (empty reduction — pattern or toolchain problem, NOT a pass)" >&2
        exit 1
    fi

    local fail=0
    while read -r name ns by al sw; do
        ref_ns="$(json_field "$sim_out" "$name" ns_op)"
        ref_al="$(json_field "$sim_out" "$name" allocs_op)"
        if [ -z "$ref_ns" ]; then
            echo "bench-check: $name has no entry in $sim_out (re-run 'scripts/bench.sh sim')" >&2
            fail=1
            continue
        fi
        if awk -v c="$ns" -v r="$ref_ns" -v t="$tol" 'BEGIN { exit !(c > t * r) }'; then
            echo "bench-check: $name regressed: $ns ns/op > $tol x committed $ref_ns" >&2
            fail=1
        fi
        if [ "$al" -gt "${ref_al:-0}" ]; then
            echo "bench-check: $name allocates more: $al allocs/op > committed ${ref_al:-0}" >&2
            fail=1
        fi
    done < "$raw"

    # Bidirectional coverage: a benchmark present in the baseline but
    # absent from the fresh run means the gate silently stopped guarding
    # it (renamed benchmark, narrowed pattern) — fail, don't shrug.
    while read -r name; do
        if ! grep -q "^$name " "$raw"; then
            echo "bench-check: baseline benchmark $name missing from this run (renamed? pattern narrowed?)" >&2
            fail=1
        fi
    done <<EOF
$baseline_names
EOF

    if [ "$fail" -ne 0 ]; then
        echo "bench-check: FAILED (hot path regressed vs committed $sim_out)" >&2
        exit 1
    fi
    echo "bench-check: OK (all hot-path benchmarks within ${tol}x of committed $sim_out, allocs at or below)"
}

# adaptive_mode reduces BenchmarkAdaptiveMatrix's two sub-benchmarks —
# the same matrix under the fixed §3.4 protocol and under adaptive
# stopping — into BENCH_adaptive.json, and enforces the acceptance
# floor: adaptive must save at least 30% of the fixed protocol's
# counted trials while reaching the same verdicts (the verdict half is
# asserted by TestAdaptiveVsFixedEquivalence; this gate records and
# guards the savings half).
adaptive_mode() {
    local benchtime="${1:-3x}"
    local out="BENCH_adaptive.json"
    RAWTMP="$(mktemp)"
    trap 'rm -f "$RAWTMP"' EXIT
    local raw="$RAWTMP"

    go test ./internal/core/ -run '^$' -bench '^BenchmarkAdaptiveMatrix$' \
        -benchtime "$benchtime" -count=1 | tee "$raw"

    awk -v benchtime="$benchtime" '
    /^BenchmarkAdaptiveMatrix\/mode=/ {
        split($1, parts, "=")
        mode = parts[2]
        sub(/-[0-9]+$/, "", mode)
        ns[mode] = $3 + 0
        for (i = 4; i < NF; i++) {
            if ($(i+1) == "trials/cycle") tc[mode] = $i + 0
            if ($(i+1) == "simsec/wallsec") sw[mode] = $i + 0
        }
        seen[mode] = 1
    }
    END {
        if (!("fixed" in seen) || !("adaptive" in seen)) {
            print "bench-adaptive: missing fixed or adaptive sub-benchmark in output" > "/dev/stderr"
            exit 1
        }
        saved = (tc["fixed"] > 0) ? 100 * (tc["fixed"] - tc["adaptive"]) / tc["fixed"] : 0
        printf "{\n"
        printf "  \"benchmark\": \"BenchmarkAdaptiveMatrix\",\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"fixed\": {\"ns_per_op\": %.0f, \"trials_per_cycle\": %.0f, \"simsec_wallsec\": %.1f},\n", \
            ns["fixed"], tc["fixed"], sw["fixed"]
        printf "  \"adaptive\": {\"ns_per_op\": %.0f, \"trials_per_cycle\": %.0f, \"simsec_wallsec\": %.1f},\n", \
            ns["adaptive"], tc["adaptive"], sw["adaptive"]
        printf "  \"trials_saved_pct\": %.1f\n", saved
        printf "}\n"
    }' "$raw" > "$out"

    echo
    echo "wrote $out:"
    cat "$out"

    saved="$(awk -F'[:,]' '/"trials_saved_pct"/ { print $2 + 0 }' "$out")"
    if ! awk -v s="$saved" 'BEGIN { exit !(s >= 30) }'; then
        echo "bench-adaptive: FAILED — adaptive saved only ${saved}% of fixed trials (acceptance floor: 30%)" >&2
        exit 1
    fi
    echo "bench-adaptive: OK (adaptive saves ${saved}% of fixed trials)"
}

# stats_mode reduces the sketch statistics benchmarks into
# BENCH_stats.json and enforces the two million-trial acceptance gates:
# the compacted-regime Add hot path must be allocation-free (allocs/op
# exactly 0), and one sketch's encoded state must stay bounded when the
# trial count grows 10x (ratio <= 1.25 vs 10x for the raw per-trial
# ledger). Both gates are deterministic — allocation counts and encoded
# bytes don't wobble with runner noise — so no tolerance knob exists.
#
# CI hook: BENCH_STATS_OUT overrides the output path (the workflow
# writes into its artifact dir so the gate never dirties the committed
# BENCH_stats.json).
stats_mode() {
    local benchtime="${1:-1s}"
    local out="${BENCH_STATS_OUT:-BENCH_stats.json}"
    RAWTMP="$(mktemp)"
    trap 'rm -f "$RAWTMP"' EXIT
    local raw="$RAWTMP"

    go test ./internal/stats -run '^$' -bench '^BenchmarkSketch(Add|State)$' \
        -benchmem -benchtime "$benchtime" -count=1 | tee "$raw"

    awk -v benchtime="$benchtime" '
    /^BenchmarkSketchAdd/ {
        add_ns = $3 + 0
        for (i = 4; i < NF; i++) if ($(i+1) == "allocs/op") add_allocs = $i + 0
        seen_add = 1
    }
    /^BenchmarkSketchState\/trials=/ {
        split($1, parts, "=")
        tier = parts[2]
        sub(/-[0-9]+$/, "", tier)
        for (i = 3; i < NF; i++) if ($(i+1) == "state_bytes") bytes[tier] = $i + 0
        seen_state++
    }
    END {
        if (!seen_add || seen_state < 2 || !("1x" in bytes) || !("10x" in bytes)) {
            print "bench-stats: missing SketchAdd or SketchState sub-benchmark in output" > "/dev/stderr"
            exit 1
        }
        ratio = (bytes["1x"] > 0) ? bytes["10x"] / bytes["1x"] : 0
        printf "{\n"
        printf "  \"benchmark\": \"BenchmarkSketchAdd + BenchmarkSketchState\",\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"add\": {\"ns_per_op\": %.2f, \"allocs_per_op\": %d},\n", add_ns, add_allocs
        printf "  \"state_bytes_1x\": %d,\n", bytes["1x"]
        printf "  \"state_bytes_10x\": %d,\n", bytes["10x"]
        printf "  \"state_growth_ratio\": %.3f,\n", ratio
        printf "  \"note\": \"per-pair statistics state is a fixed set of these sketches (core.PairSketches); the raw per-trial ledger grows 10.000x on the same stream\"\n"
        printf "}\n"
    }' "$raw" > "$out"

    echo
    echo "wrote $out:"
    cat "$out"

    local allocs ratio
    allocs="$(awk -F'[:,]' '/"allocs_per_op"/ { print $5 + 0 }' "$out")"
    ratio="$(awk -F'[:,]' '/"state_growth_ratio"/ { print $2 + 0 }' "$out")"
    if [ -z "$allocs" ] || [ -z "$ratio" ]; then
        echo "bench-stats: FAILED — could not reduce benchmark output (see above)" >&2
        exit 1
    fi
    if [ "$allocs" != "0" ]; then
        echo "bench-stats: FAILED — compacted-regime Add allocates ($allocs allocs/op, gate: 0)" >&2
        exit 1
    fi
    if ! awk -v r="$ratio" 'BEGIN { exit !(r > 0 && r <= 1.25) }'; then
        echo "bench-stats: FAILED — sketch state grew ${ratio}x at 10x trials (gate: <= 1.25x; O(1) memory violated)" >&2
        exit 1
    fi
    echo "bench-stats: OK (Add is allocation-free; 10x trials grew state only ${ratio}x)"
}

case "${1:-}" in
sim)
    sim_mode "${2:-1s}"
    ;;
adaptive)
    adaptive_mode "${2:-3x}"
    ;;
stats)
    stats_mode "${2:-1s}"
    ;;
-check)
    check_mode
    ;;
*)
    echo "usage: scripts/bench.sh sim|adaptive|stats [benchtime] | -check" >&2
    exit 2
    ;;
esac
