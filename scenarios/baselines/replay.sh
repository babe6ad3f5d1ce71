#!/usr/bin/env bash
# Replays every scenario that has a committed baseline in this directory and
# checks the result against it. Run from the repository root after building
# manetsim and manet_report into build/:
#
#   scenarios/baselines/replay.sh
#
# Each replay runs `manetsim run` at the fidelity its baseline was recorded
# with (1 seed, the duration below) into results/, then gates the artifact
# with manet_report at tolerance 0, which names every drifted metric, then
# cmp's it with the baseline, which also pins each run's digest, events,
# peak queue depth and flow rows. Exits 1 if any replay fails.
#
# Re-recording after a deliberate behaviour change: run this script, then
# copy results/<name>.json over scenarios/baselines/<name>.json for each
# replay below.
set -uo pipefail

status=0

replay() {
  local name="$1" duration="$2"
  echo "== $name (--duration=$duration)"
  if ./build/tools/manetsim run "scenarios/$name.json" --seeds=1 --duration="$duration" \
      --out-dir=results &&
    ./build/tools/manet_report "scenarios/baselines/$name.json" "results/$name.json" &&
    cmp "scenarios/baselines/$name.json" "results/$name.json"; then
    echo "== $name: ok"
  else
    echo "== $name: FAILED" >&2
    status=1
  fi
}

# The paper's pause-time figure.
replay fig_pause_throughput 30
# Its n:40 and n:200 cells are partitioned (oracle connectivity 0.54 and
# 0.22), so any change to the connectivity oracle's result fails here.
replay urban_city 30
# The only replay that runs OLSR: all seven protocols with node crashes and
# restarts. 60 simulated seconds outlast OLSR's duplicate and topology hold
# times, so state kept past its expiry shows up.
replay fig_fault_pdr 60
# Saturated RTS/CTS with up to 48 closed-loop transport sources, all seven
# protocols: the regime where same-instant event ties are most common, so
# any change to the kernel's tie order shows up here.
replay fig_load_collapse 30
# The only replay that runs LAR's zone-limited first request with warm
# locations, then its flood fallback: LAR, DSR and AODV at 50 nodes, denser
# than the 14-node goldens.
replay abl_lar 30

exit "$status"
