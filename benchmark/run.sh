#!/usr/bin/env bash
# The repository benchmark. Run from the repository root:
#
#   benchmark/run.sh [--seed=N] [--passes=P] [--workload=NAME] [--out=FILE]
#                    [--trace=0|1] [--seconds=S]
#   benchmark/run.sh --selftest
#
# Builds benchmark/ in Release into build-bench/, then runs each workload in a
# fresh process (all four unless --workload is given). Flags also take the
# `--flag value` form. A run is always exactly --passes passes (default 3);
# --seconds is accepted and ignored, so that the standard benchmark command
# line, which passes BENCHMARK.json's run_seconds, works unchanged. With
# --workload, the last line of standard output is the result object
# {"correct", "attempted", "failed", "metrics"}; without it, each workload
# runs untraced and then traced, and --out (default build-bench/result.json)
# collects every result file. Exits non-zero if the build or any check fails.
set -euo pipefail

if [[ -n "${MANET_SHARDS:-}" && "${MANET_SHARDS}" != "1" ]]; then
  echo "benchmark/run.sh: refusing to run with MANET_SHARDS=${MANET_SHARDS}; the benchmark measures the single-queue kernel" >&2
  exit 2
fi

root="$(pwd)"
build="$root/build-bench"
jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi

workload="" seed=1 passes=3 trace="" out="" selftest=0
while (($#)); do
  arg="$1"
  shift
  if [[ "$arg" == "--selftest" ]]; then selftest=1; continue; fi
  if [[ "$arg" == *=* ]]; then
    key="${arg%%=*}" value="${arg#*=}"
  else
    (($#)) || { echo "benchmark/run.sh: missing value for $arg" >&2; exit 2; }
    key="$arg" value="$1"
    shift
  fi
  case "$key" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --passes) passes="$value" ;;
    --seconds) ;;
    --trace) trace="$value" ;;
    --out) out="$value" ;;
    *) echo "benchmark/run.sh: unknown flag $key" >&2; exit 2 ;;
  esac
done

# Configure until it has once succeeded (a generated Makefile), so an
# interrupted first configure is retried instead of reused.
{
  [[ -f "$build/Makefile" ]] || cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target manet_bench -j "$jobs"
} >&2

bench="$build/manet_bench"
MANET_BENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export MANET_BENCH_GIT_SHA

if ((selftest)); then
  exec "$bench" --selftest
fi

if [[ -n "$workload" ]]; then
  exec "$bench" --workload "$workload" --seed "$seed" --trace "${trace:-0}" \
    --passes "$passes" ${out:+--out "$out"} \
    --trace-file "$build/trace-$workload.json"
fi

# The full suite: every workload untraced, then traced, one process each.
out="${out:-$build/result.json}"
status=0
results=()
for w in $("$bench" --list | cut -f1); do
  for t in ${trace:-0 1}; do
    file="$build/result-$w-trace$t.json"
    "$bench" --workload "$w" --seed "$seed" --trace "$t" --passes "$passes" \
      --out "$file" --trace-file "$build/trace-$w.json" || status=1
    [[ -s "$file" ]] && results+=("$file")
  done
done
{
  echo '{"results": ['
  sep=""
  for f in "${results[@]}"; do
    printf '%s' "$sep"
    cat "$f"
    sep=","
  done
  echo ']}'
} >"$out"
echo "results written to $out" >&2
exit "$status"
