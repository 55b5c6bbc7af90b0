#!/usr/bin/env bash
# Sweep harness: drive cmd/prudentia -sweep across a rate x RTT x queue
# x CCA parameter grid and leave consolidated TSV/JSON artifacts. Every
# grid cell runs the full pair matrix of the chosen services under the
# quick trial protocol with sketch-backed statistics, so the whole grid
# is mergeable, deterministic, and byte-reproducible for a given seed.
#
#   scripts/sweep.sh                     default paper-style grid
#   scripts/sweep.sh [extra flags...]    extra cmd/prudentia flags pass
#                                        through verbatim (e.g. -v,
#                                        -workers 8)
#
# Environment overrides (all optional):
#   SWEEP_RATES    comma-separated bottleneck rates in Mbps  (8,50)
#   SWEEP_RTTS     comma-separated RTTs in ms                (25,50,100)
#   SWEEP_QUEUES   comma-separated queue capacities in pkts  (64,256)
#   SWEEP_CCAS     comma-separated catalog service names
#                  (iPerf (Cubic),iPerf (BBR),iPerf (Reno))
#   SWEEP_OUT      output path prefix                        (sweep)
#   SWEEP_SEED     base seed                                 (42)
#
# Artifacts: <SWEEP_OUT>.tsv (one row per pair-slot per cell; header
# schema asserted by scripts/ci.sh) and <SWEEP_OUT>.json
# ("prudentia.sweep/1", per-cell merged share sketches included).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${SWEEP_OUT:-sweep}"
go run ./cmd/prudentia -sweep \
    -sweep-rates "${SWEEP_RATES:-8,50}" \
    -sweep-rtts "${SWEEP_RTTS:-25,50,100}" \
    -sweep-queues "${SWEEP_QUEUES:-64,256}" \
    -sweep-ccas "${SWEEP_CCAS:-iPerf (Cubic),iPerf (BBR),iPerf (Reno)}" \
    -sweep-out "$OUT" \
    -seed "${SWEEP_SEED:-42}" \
    "$@"

for ext in tsv json; do
    [ -s "$OUT.$ext" ] || { echo "sweep: no $OUT.$ext produced" >&2; exit 1; }
done
echo "sweep: artifacts $OUT.tsv $OUT.json"
