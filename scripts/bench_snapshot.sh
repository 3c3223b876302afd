#!/usr/bin/env bash
# Perf-trajectory snapshot: run the crypto micro benches and the fig3
# signalling-latency bench and write their results to the repo root as
#   BENCH_crypto.json  (google-benchmark JSON for bench/micro_crypto, three
#                       repetitions, plus a host block)
#   BENCH_protocol.json (google-benchmark JSON for bench/micro_protocol:
#                       RAR encode/decode, layer signing, end-to-end
#                       reserve over 2/4/8 domains; three repetitions plus
#                       a host block)
#   BENCH_fig3.json    (fig3 stdout table + metrics snapshot, wrapped)
#   BENCH_obs.json     (google-benchmark JSON for bench/micro_obs: hot-path
#                       overhead traced vs detached + primitive costs — plus
#                       "scrape_overhead" and "metrics_render" keys folded
#                       in from bench/daemon_latency: daemon RPC p50/p99
#                       with and without a concurrent admin-plane scraper,
#                       and what one /metrics render costs the loop; and a
#                       host block)
#   BENCH_admission.json (bench/load_broker: RARs/sec + p50/p99 for the
#                       timeline pool vs the reference scan, the broker,
#                       and the WAL overhead sweep (off/nosync/fsync);
#                       format documented in docs/PERFORMANCE.md)
#   BENCH_daemon.json  (bench/daemon_latency: wall-clock p50/p99 of a full
#                       RAR setup through the in-memory world vs the same
#                       ops over the UNIX-socket daemon — the transport
#                       overhead of the bbd stack, docs/DAEMON.md — plus a
#                       "load" key folded in from bench/load_daemon: fleet
#                       RARs/s serial vs pipelined, with a core-aware
#                       pipeline-speedup gate; and a host block)
# so successive PRs can diff the numbers. A bench whose own gate fails does
# not stop the snapshot: all six files are written, and the script then
# exits non-zero naming every step that failed.
#
# Usage: ./scripts/bench_snapshot.sh           (full run)
#        SMOKE=1 ./scripts/bench_snapshot.sh   (fast smoke: fewer repetitions,
#                                               used by tier1.sh --bench)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target micro_crypto micro_protocol micro_obs \
  fig3_signalling_latency load_broker daemon_latency load_daemon >/dev/null

min_time=""
if [[ "${SMOKE:-0}" == "1" ]]; then
  min_time="--benchmark_min_time=0.05"
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# micro_crypto: three repetitions of every benchmark (google-benchmark adds
# mean/median/stddev/cv aggregates), plus the host block, which also says
# whether the CPU has the SHA extensions.
./build/bench/micro_crypto --benchmark_repetitions=3 \
  --benchmark_out="$workdir/micro_crypto.json" --benchmark_out_format=json \
  ${min_time:+"$min_time"} >/dev/null
python3 - "$workdir/micro_crypto.json" > BENCH_crypto.json <<'EOF'
import json, sys
sys.path.insert(0, "scripts")
from host_block import host_block
doc = json.load(open(sys.argv[1]))
doc["host"] = host_block()
json.dump(doc, sys.stdout, indent=1)
sys.stdout.write("\n")
EOF

# micro_protocol: the same three repetitions and host block.
./build/bench/micro_protocol --benchmark_repetitions=3 \
  --benchmark_out="$workdir/micro_protocol.json" --benchmark_out_format=json \
  ${min_time:+"$min_time"} >/dev/null
python3 - "$workdir/micro_protocol.json" > BENCH_protocol.json <<'EOF'
import json, sys
sys.path.insert(0, "scripts")
from host_block import host_block
doc = json.load(open(sys.argv[1]))
doc["host"] = host_block()
json.dump(doc, sys.stdout, indent=1)
sys.stdout.write("\n")
EOF

./build/bench/micro_obs \
  --benchmark_out=BENCH_obs.json --benchmark_out_format=json \
  ${min_time:+"$min_time"} >/dev/null

# fig3 prints a human table and drops a metrics snapshot in the cwd; fold
# both into one JSON document.
(cd "$workdir" && "$OLDPWD/build/bench/fig3_signalling_latency" > stdout.txt)
python3 - "$workdir" > BENCH_fig3.json <<'EOF'
import json, sys, pathlib
workdir = pathlib.Path(sys.argv[1])
doc = {
    "bench": "fig3_signalling_latency",
    "stdout": (workdir / "stdout.txt").read_text(),
    "metrics": json.loads(
        (workdir / "fig3_signalling_latency.metrics.json").read_text()),
}
json.dump(doc, sys.stdout, indent=1)
sys.stdout.write("\n")
EOF

# Steps that run a gated bench record their failure here instead of
# stopping the script; the summary at the end reports them.
failed=()

# load_broker writes its own JSON summary; run it three times from the
# workdir (so the per-run metrics snapshot doesn't land in the repo root)
# and keep the last run's document, plus a host block and the spread of
# pool_speedup_10k over the three runs.
load_flags=""
if [[ "${SMOKE:-0}" == "1" ]]; then
  load_flags="--smoke"
fi
for run in 1 2 3; do
  (cd "$workdir" &&
    "$OLDPWD/build/bench/load_broker" ${load_flags:+"$load_flags"} \
      --json-out "$workdir/load_broker.$run.json" \
      > "load_broker.$run.stdout.txt") || {
        cat "$workdir/load_broker.$run.stdout.txt"
        failed+=("load_broker run $run"); }
done
python3 - "$workdir" > BENCH_admission.json <<'EOF'
import json, sys
sys.path.insert(0, "scripts")
from host_block import host_block
workdir = sys.argv[1]
runs = [json.load(open(f"{workdir}/load_broker.{i}.json")) for i in (1, 2, 3)]
doc = runs[-1]
doc["host"] = host_block()
doc["pool_speedup_10k_runs"] = [
    next(p["speedup"] for p in r["pool"] if p["live"] == 10000) for r in runs]
json.dump(doc, sys.stdout, indent=1)
sys.stdout.write("\n")
EOF

# daemon_latency forks its own broker daemon on a UNIX socket and writes
# the p50/p99 transport-overhead summary itself. The full (non-smoke) run
# gates the scrape-under-load p99 within 5% of unscraped on multi-core
# hosts (bench/daemon_latency.cpp).
(cd "$workdir" &&
  "$OLDPWD/build/bench/daemon_latency" ${load_flags:+"$load_flags"} \
    --json-out "$OLDPWD/BENCH_daemon.json" > daemon_latency.stdout.txt) || {
      cat "$workdir/daemon_latency.stdout.txt"; failed+=("daemon_latency"); }

# load_daemon drives a forked bbd with a client fleet, serial vs pipelined
# (ISSUE 10). The bench itself enforces the core-aware gate — depth-8
# pipeline >= 3x serial RARs/s on >= 4 cores, > 1x sanity on 2-3 cores,
# recorded-only on one core — so a regression fails this script at the
# end. Its summary is folded into BENCH_daemon.json under "load",
# preserving the daemon_latency keys.
(cd "$workdir" &&
  "$OLDPWD/build/bench/load_daemon" ${load_flags:+"$load_flags"} \
    --json-out "$OLDPWD/build/load_daemon.json" > load_daemon.stdout.txt) || {
      cat "$workdir/load_daemon.stdout.txt"; failed+=("load_daemon"); }
python3 - <<'PY'
import json, sys
sys.path.insert(0, "scripts")
from host_block import host_block
daemon = json.load(open("BENCH_daemon.json"))
load = json.load(open("build/load_daemon.json"))
daemon["load"] = {k: v for k, v in load.items() if k != "bench"}
daemon["load"]["source"] = "bench/load_daemon"
daemon["host"] = host_block()
with open("BENCH_daemon.json", "w") as out:
    json.dump(daemon, out, indent=1)
    out.write("\n")
PY
rm -f build/load_daemon.json

# Fold the admin-plane scrape-overhead series into BENCH_obs.json so the
# observability snapshot carries both costs of the telemetry layer: the
# in-process hot path (micro_obs) and the live daemon plane under scrape.
python3 - <<'EOF'
import json, sys
sys.path.insert(0, "scripts")
from host_block import host_block
obs = json.load(open("BENCH_obs.json"))
daemon = json.load(open("BENCH_daemon.json"))
obs["scrape_overhead"] = {
    "source": "bench/daemon_latency",
    "iterations": daemon["iterations"],
    "daemon_unix": daemon["daemon_unix"],
    "daemon_unix_scraped": daemon["daemon_unix_scraped"],
    **daemon["scrape_overhead"],
}
obs["metrics_render"] = {"source": "bench/daemon_latency",
                         **daemon["metrics_render"]}
obs["host"] = host_block()
with open("BENCH_obs.json", "w") as out:
    json.dump(obs, out, indent=1)
    out.write("\n")
EOF

echo "bench_snapshot: wrote BENCH_crypto.json, BENCH_protocol.json, BENCH_fig3.json, BENCH_obs.json, BENCH_admission.json and BENCH_daemon.json"
if (( ${#failed[@]} > 0 )); then
  printf 'bench_snapshot: FAILED: %s\n' "${failed[@]}" >&2
  exit 1
fi
