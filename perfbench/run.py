#!/usr/bin/env python3
"""End-to-end benchmark of the bbd broker daemon.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_loadgen (this directory's CMake package, which compiles the
libraries from ../src) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one seeded load run against a freshly forked
daemon and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A failed correctness check prints the result with "correct": false and
exits 1; a missing source tree or a failed or non-optimised build exits
non-zero without a result. README.md explains every workload and metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload names; loadgen.cpp's kWorkloads table defines each one (offered
# rate, window, hold).
WORKLOADS = ("hbh_reserve", "tunnel_flow", "source_parallel", "durable_tunnel")

# name -> unit. Every name is printed on every workload.
END_TO_END = {
    "sat_rars_per_s": "1/s",
    "lat_p50_us": "us",
    "success_ratio": "ratio",
    "setup_s": "s",
    "daemon_cpu_us_per_rar": "us",
    "daemon_rss_mb": "MB",
}

PER_LAYER = {
    "net.client_send_us": "us",
    "net.codec_us": "us",
    "net.framing_us": "us",
    "net.transport_us": "us",
    "net.wait_us": "us",
    "net.rpc_wall_p50_us": "us",
    "net.rpc_wall_p99_us": "us",
    "net.bytes_per_rar": "B",
    "net.frames_per_rar": "count",
    "net.backpressure_stalls": "count",
    "sig.channel.seal_us": "us",
    "sig.channel.open_us": "us",
    "sig.reserve_us": "us",
    "sig.reserve_p99_us": "us",
    "sig.release_us": "us",
    "sig.msg.in_op_us": "us",
    "sig.msg.rar_encode_us": "us",
    "sig.msg.rar_decode_us": "us",
    "sig.msg.reply_encode_us": "us",
    "sig.msg.reply_decode_us": "us",
    "sig.msg.rar_bytes": "B",
    "sig.trust.verify_user_us": "us",
    "sig.fabric.msgs_per_rar": "count",
    "sig.fabric.bytes_per_rar": "B",
    "sig.hops_per_rar": "count",
    "sig.retransmits": "count",
    "crypto.sign_us": "us",
    "crypto.verify_miss_us": "us",
    "crypto.verify_hit_us": "us",
    "crypto.signs_per_rar": "count",
    "crypto.modexp_per_rar": "count",
    "crypto.verify_hit_ratio": "ratio",
    "crypto.chain_hit_ratio": "ratio",
    "crypto.tbs_hit_ratio": "ratio",
    "policy.decide_us": "us",
    "policy.decisions_per_rar": "count",
    "policy.deny_ratio": "ratio",
    "bb.admission_mean_us": "us",
    "bb.commit_us": "us",
    "bb.release_us": "us",
    "bb.pool_boundaries": "count",
    "bb.rejections": "count",
    "bb.wal.fsyncs_per_rar": "count",
    "bb.wal.records_per_fsync": "count",
    "bb.wal.bytes_per_rar": "B",
    "bb.wal.commit_us": "us",
    "bbd.cpu_util": "ratio",
    "bbd.threads": "count",
    "bbd.ctx_switches_per_rar": "count",
    "loadgen.lat_p90_us": "us",
    "loadgen.lat_p99_us": "us",
    "loadgen.late_p99_us": "us",
    "loadgen.achieved_rps": "1/s",
    "loadgen.lat_samples": "count",
    "obs.trace_overhead_pct": "%",
    "obs.replay_coverage": "ratio",
    "replay.op_us": "us",
}

OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the load generator; its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources next to the benchmark")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_loadgen",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "perfbench_loadgen")
    return binary if os.access(binary, os.X_OK) else None


def cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """SHA-256 over the benchmarked sources, standing in for a commit id
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_block(build_dir, args):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return {
        "cores": os.cpu_count(),
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "commit": commit or "unknown",
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cpu_times():
    """(steal, total) jiffies of the host from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_loadgen(binary, args, workdir, out_path, spans_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out_path, "--spans", spans_path]
    # Own process group: on a timeout the whole tree goes, and the forked
    # daemons also die with their parent (PR_SET_PDEATHSIG).
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        # A run takes about --seconds plus a few seconds of set-up; a hung
        # one is stopped well inside the 180 s a run may take.
        return proc.wait(timeout=110 + args.seconds)
    except subprocess.TimeoutExpired:
        log("perfbench: load generator timed out; killing it")
        return -1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


# --- Registry scrapes -------------------------------------------------------


def series(scrape, name):
    for family in (scrape or {}).get("metrics", []):
        if family["name"] == name:
            return family["series"]
    return []


def total(scrape, name, **labels):
    """Sum of a counter/gauge family's series matching `labels`."""
    out = 0.0
    for s in series(scrape, name):
        if all(s["labels"].get(k) == v for k, v in labels.items()):
            out += s.get("value", 0)
    return out


def hist_totals(scrape, name):
    count = sum(s.get("count", 0) for s in series(scrape, name))
    return count, sum(s.get("sum", 0.0) for s in series(scrape, name))


def gauge(scrape, name, **labels):
    for s in series(scrape, name):
        if all(s["labels"].get(k) == v for k, v in labels.items()):
            return s.get("value", 0.0)
    return 0.0


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(v, raw):
    begin, mid, end = raw.get("scrape_begin"), raw.get("scrape_mid"), raw.get("scrape_end")

    def delta(name, **labels):
        return total(end, name, **labels) - total(begin, name, **labels)

    ops = v["measured_ops"]
    hits = {}
    for cache in ("verify", "chain", "tbs"):
        family = "e2e_crypto_%s_cache_lookups_total" % cache
        hit, miss = delta(family, result="hit"), delta(family, result="miss")
        hits[cache] = ratio(hit, hit + miss)
    decisions = delta("e2e_policy_decisions_total")
    fsyncs = delta("e2e_bb_wal_fsyncs_total")
    adm_count, adm_sum = hist_totals(end, "e2e_bb_admission_us")
    wall = dict(objective="bbd.rpc.wall")
    return {
        "net.client_send_us": v["client_send_us"],
        "net.codec_us": v["replay.self.net.codec_us"],
        "net.framing_us": v["replay.self.net.framing_us"],
        "net.transport_us": v["idle_reserve_rtt_p50_us"] - v["replay.reserve_op_p50_us"],
        "net.wait_us": v["lat_p50_us"] - v["idle_reserve_rtt_p50_us"],
        "net.rpc_wall_p50_us": gauge(end, "e2e_slo_latency_quantile_us", quantile="p50", **wall),
        "net.rpc_wall_p99_us": gauge(end, "e2e_slo_latency_quantile_us", quantile="p99", **wall),
        "net.bytes_per_rar": ratio(delta("e2e_net_stream_bytes_total"), ops),
        "net.frames_per_rar": ratio(delta("e2e_net_frames_total"), ops),
        "net.backpressure_stalls": delta("e2e_net_backpressure_stalls_total"),
        "sig.channel.seal_us": v["replay.self.sig.channel.seal_us"],
        "sig.channel.open_us": v["replay.self.sig.channel.open_us"],
        "sig.reserve_us": v["sig.reserve_us"],
        "sig.reserve_p99_us": v["sig.reserve_p99_us"],
        "sig.release_us": v["sig.release_us"],
        "sig.msg.in_op_us": v["replay.self.sig.msg_us"],
        "sig.msg.rar_encode_us": v["sig.msg.rar_encode_us"],
        "sig.msg.rar_decode_us": v["sig.msg.rar_decode_us"],
        "sig.msg.reply_encode_us": v["sig.msg.reply_encode_us"],
        "sig.msg.reply_decode_us": v["sig.msg.reply_decode_us"],
        "sig.msg.rar_bytes": v["sig.msg.rar_bytes"],
        "sig.trust.verify_user_us": v["sig.trust.verify_user_us"],
        "sig.fabric.msgs_per_rar": ratio(delta("e2e_sig_fabric_messages_total"), ops),
        "sig.fabric.bytes_per_rar": ratio(delta("e2e_sig_fabric_bytes_total"), ops),
        "sig.hops_per_rar": ratio(delta("e2e_sig_hops_processed_total"), ops),
        "sig.retransmits": delta("e2e_sig_retransmits_total"),
        "crypto.sign_us": v["crypto.sign_us"],
        "crypto.verify_miss_us": v["crypto.verify_miss_us"],
        "crypto.verify_hit_us": v["crypto.verify_hit_us"],
        "crypto.signs_per_rar": ratio(delta("e2e_crypto_signs_total"), ops),
        "crypto.modexp_per_rar": ratio(delta("e2e_crypto_modexp_total"), ops),
        "crypto.verify_hit_ratio": hits["verify"],
        "crypto.chain_hit_ratio": hits["chain"],
        "crypto.tbs_hit_ratio": hits["tbs"],
        "policy.decide_us": v["policy.decide_us"],
        "policy.decisions_per_rar": ratio(decisions, ops),
        "policy.deny_ratio": ratio(delta("e2e_policy_decisions_total", decision="deny"), decisions),
        "bb.admission_mean_us": ratio(adm_sum, adm_count),
        "bb.commit_us": v["bb.commit_us"],
        "bb.release_us": v["bb.release_us"],
        "bb.pool_boundaries": total(mid, "e2e_bb_pool_boundaries"),
        "bb.rejections": delta("e2e_bb_pool_rejections_total"),
        "bb.wal.fsyncs_per_rar": ratio(fsyncs, ops),
        "bb.wal.records_per_fsync": ratio(delta("e2e_bb_wal_records_total"), fsyncs),
        "bb.wal.bytes_per_rar": ratio(delta("e2e_bb_wal_bytes_total"), ops),
        "bb.wal.commit_us": v["bb.wal.commit_us"],
        "bbd.cpu_util": v["bbd.cpu_util"],
        "bbd.threads": v["bbd.threads"],
        "bbd.ctx_switches_per_rar": v["bbd.ctx_switches_per_rar"],
        "loadgen.lat_p90_us": v["lat_p90_us"],
        "loadgen.lat_p99_us": v["lat_p99_us"],
        "loadgen.late_p99_us": v["late_p99_us"],
        "loadgen.achieved_rps": v["achieved_rps"],
        "loadgen.lat_samples": v["lat_samples"],
        "obs.trace_overhead_pct": 100.0 * ratio(v["traced_lat_p50_us"] - v["lat_p50_us"], v["lat_p50_us"]),
        "obs.replay_coverage": v["replay.coverage"],
        "replay.op_us": v["replay.op_us"],
    }


def end_to_end(v, attempted, failed):
    return {
        "sat_rars_per_s": v["sat_rars_per_s"],
        "lat_p50_us": v["lat_p50_us"],
        "success_ratio": 1.0 - ratio(failed, attempted),
        "setup_s": v["setup_s"],
        "daemon_cpu_us_per_rar": v["daemon_cpu_us_per_rar"],
        "daemon_rss_mb": v["daemon_rss_mb"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated benchmark still kills its generator and removes its
    # run directory (the finally blocks below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1
    host = host_block(build_dir, args)
    if host["build_type"] not in OPTIMISED_BUILD_TYPES:
        log("perfbench: refusing a non-optimised build (%s)" % host["build_type"])
        return 1

    # Relative, so the daemon's UNIX socket path stays short.
    workdir = os.path.relpath(os.path.join(build_dir, "run-%d" % os.getpid()))
    out_path = os.path.join(workdir, "result.json")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, "%s.jsonl" % args.workload)
    try:
        os.makedirs(workdir)
        steal0, total0 = cpu_times()
        rc = run_loadgen(binary, args, workdir, out_path, spans_path)
        steal1, total1 = cpu_times()
        # CPU time the hypervisor gave to other guests while this run was
        # measured: the host block records it, since it moves every timing.
        host["steal_pct"] = round(100.0 * ratio(steal1 - steal0, total1 - total0), 2)
        with open(out_path) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: no result from the load generator: %s" % e)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not result["optimized"]:
        log("perfbench: refusing a binary built without optimisation")
        return 1

    v = result["values"]
    attempted, failed = result["attempted"], result["failed"]
    correct = (rc == 0 and failed == 0 and result["errors"] == 0
               and all(result["checks"].values()))
    try:
        values = per_layer(v, result["raw"]) if args.trace else end_to_end(v, attempted, failed)
    except KeyError as e:
        log("perfbench: load generator did not report %s" % e)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print("host: " + json.dumps(host, sort_keys=True))
    print("workload: %s rate=%g/s conns=%d window=%d" % (
        args.workload, v["offered_rps"], v["conns"], v["window"]))
    print("checks: " + json.dumps(result["checks"], sort_keys=True))
    print("open-loop reserve latency: %d samples, p99 %.0f us" % (
        v.get("lat_samples", 0), v.get("lat_p99_us", 0)))
    if host["steal_pct"] > 5:
        print("FLAG: the hypervisor stole %.1f %% of the CPU during the run"
              % host["steal_pct"])
    if v.get("late_p99_us", 0) > 1000:
        print("FLAG: generator fell behind its schedule (late p99 %.0f us)"
              % v["late_p99_us"])
    for name, m in metrics.items():
        print("  %-28s %14.3f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
