#!/usr/bin/env bash
# Sweep harness: drive cmd/prudentia -sweep across a rate x RTT x queue
# grid over a catalog of services and leave consolidated TSV/JSON
# artifacts. The sweep is one watchdog cycle whose settings are the grid
# cells: each cell runs a solo calibration and the full pair matrix of
# the chosen services under the quick trial protocol with sketch-backed
# statistics, so the whole grid is deterministic and byte-reproducible
# for a given seed, and every cycle flag
# (-workers, -adaptive, -chaos, ...) works here too.
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
#   SWEEP_CCAS     comma-separated catalog service names, passed as
#                  -services (iPerf (Cubic),iPerf (BBR),iPerf (Reno))
#   SWEEP_DIR      run directory                             (sweep.run)
#   SWEEP_SEED     base seed                                 (42)
#
# Artifacts, in SWEEP_DIR beside the cycle's manifest, metrics, timeline
# and fault ledger: sweep.tsv (one row per pair-slot per cell; header
# schema asserted by scripts/ci.sh) and sweep.json ("prudentia.sweep/2",
# each cell's counted shares as a sorted merged_share_pct number array).
# A killed sweep resumes when
# rerun with the same SWEEP_DIR.
set -euo pipefail
cd "$(dirname "$0")/.."

DIR="${SWEEP_DIR:-sweep.run}"
go run ./cmd/prudentia -sweep \
    -sweep-rates "${SWEEP_RATES:-8,50}" \
    -sweep-rtts "${SWEEP_RTTS:-25,50,100}" \
    -sweep-queues "${SWEEP_QUEUES:-64,256}" \
    -services "${SWEEP_CCAS:-iPerf (Cubic),iPerf (BBR),iPerf (Reno)}" \
    -dir "$DIR" \
    -seed "${SWEEP_SEED:-42}" \
    "$@"

for ext in tsv json; do
    [ -s "$DIR/sweep.$ext" ] || { echo "sweep: no $DIR/sweep.$ext produced" >&2; exit 1; }
done
echo "sweep: artifacts $DIR/sweep.tsv $DIR/sweep.json"
