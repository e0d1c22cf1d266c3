#!/bin/bash
# Regenerate every table and figure (defaults: STPT_REPS=3, 300 queries),
# then check the fresh results against the committed baselines.
#
# Observability knobs are propagated to every experiment binary:
#   STPT_TRACE=1         the run's telemetry document, inline in its
#                        envelope (results/<name>.json)
#   STPT_TRACE_EVENTS=1  Chrome trace per run
#                        (results/telemetry/<name>.trace.json, Perfetto)
set -euo pipefail
cd "$(dirname "$0")"

export STPT_TRACE="${STPT_TRACE:-}"
export STPT_TRACE_EVENTS="${STPT_TRACE_EVENTS:-}"
echo "=== scale: reps=${STPT_REPS:-3} queries=${STPT_QUERIES:-300}" \
     "grid=${STPT_GRID:-32} hours=${STPT_HOURS:-220} train=${STPT_TRAIN:-100}" \
     "postprocess=${STPT_POSTPROCESS:-0}" \
     "trace=${STPT_TRACE:-0} trace_events=${STPT_TRACE_EVENTS:-0} ==="

# Build only what the experiments run (a bare `cargo build` builds every
# default member of the workspace).
cargo build --release -p stpt-bench -p xtask

mkdir -p results/logs
for exp in table2 fig9 fig8d fig7 fig8ab fig8ef fig8c fig8g fig8h fig6 ablate fig8i ldp_gap fig_pp; do
  echo "=== $exp start $(date +%T) ==="
  rc=0
  timeout 3000 ./target/release/"$exp" > results/logs/"$exp".txt 2>&1 || rc=$?
  echo "=== $exp done  $(date +%T) exit $rc ==="
  if [ "$rc" -ne 0 ]; then
    echo "FAILED: $exp (see results/logs/$exp.txt)" >&2
    exit "$rc"
  fi
  # Surface the run's memory high-water mark when the resource layer
  # sampled it (traced runs with /proc readable).
  peak=$(grep -o '{ "name": "process.peak_rss_bytes", "value": [0-9.e+]* }' \
           results/"$exp".json 2>/dev/null \
         | grep -o '[0-9.e+]*' | tail -1 || true)
  if [ -n "$peak" ]; then
    echo "=== $exp peak RSS: $(awk "BEGIN { printf \"%.1f MiB\", $peak / 1048576 }") ==="
  fi
done
echo ALL_EXPERIMENTS_DONE

# Gate the fresh results against the committed baselines. First-time setup
# (no baselines yet): generate them with `cargo xtask baseline` and commit.
if [ -d baselines ]; then
  ./target/release/xtask regress
else
  echo "no baselines/ directory - run 'cargo xtask baseline' and commit the output" >&2
fi
