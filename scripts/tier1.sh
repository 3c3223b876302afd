#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
# Additionally fails on ANY compiler warning in src/obs/ — the
# observability layer is held to a warning-free standard.
#
# Usage: ./scripts/tier1.sh          (from the repo root; build dir: ./build.
#                                     Also lints the metrics/doc contract:
#                                     every e2e_* series named in src/ must
#                                     appear in docs/OBSERVABILITY.md; and
#                                     the one-owner-thread contract: no
#                                     mutex, atomic or condition variable
#                                     in src/bb, src/sig, src/crypto,
#                                     src/policy, src/kit,
#                                     src/net/bbd_service.* or src/obs
#                                     outside metrics.* and audit.*)
#        ./scripts/tier1.sh --soak   (seeded fault-injection soak suite under
#                                     ASan/UBSan, 3 fixed seeds, plus the
#                                     retry/exchange/failure-injection and
#                                     channel cases of sig_test; build dir:
#                                     ./build-asan via the "asan" preset)
#        ./scripts/tier1.sh --bench  (crypto differential tests, the SHA-256,
#                                     HMAC, Montgomery, RSA and BigUInt
#                                     suites again under ASan/UBSan,
#                                     and a smoke run of
#                                     scripts/bench_snapshot.sh)
#        ./scripts/tier1.sh --obs    (observability contract tests, the
#                                     trace-propagation/audit soak, a
#                                     tracedump determinism check, and the
#                                     micro_obs <5% hot-path overhead gate)
#        ./scripts/tier1.sh --load   (admission load gates: pool equivalence
#                                     suite under default + ASan, a
#                                     load_broker smoke run gating
#                                     timeline >= 5x reference at
#                                     10k live, and byte-identity of the
#                                     fig3 / tunnel_scaling protocol
#                                     stdout)
#        ./scripts/tier1.sh --recovery (durability gates: the WAL/snapshot
#                                     differential suite and the crash/recover
#                                     soak, each in the default build and
#                                     again under the ASan/UBSan preset)
#        ./scripts/tier1.sh --daemon (socket transport gates: framing +
#                                     daemon + pipeline suites, the
#                                     multi-process soak and the admin-plane
#                                     conformance suite, default build then
#                                     ASan/UBSan, then net_stream_test
#                                     and daemon_admin_test again under
#                                     TSan (in-process client threads vs
#                                     the daemon loop), and the in-process
#                                     daemon cases of net_daemon_test.cpp
#                                     once more under TSan (loop and
#                                     client threads that both sign and
#                                     verify);
#                                     the scrape-
#                                     conformance gate — a live bbd with
#                                     --admin scraped over /metrics, /statz
#                                     and /healthz, families checked against
#                                     the doc catalog; plus byte-identity of
#                                     fig3/tunnel_scaling run as
#                                     communicating OS processes vs the
#                                     in-memory run, grant bytes included)
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--bench" ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" --target crypto_test >/dev/null
  # The differential suites pin the SHA-256 kernel, the Montgomery kernel
  # and CRT signing against the reference implementations before we trust
  # any numbers.
  ./build/tests/crypto_test \
    --gtest_filter='Montgomery*:CryptoCache*:Rsa*:BigUInt*:Sha256*:Hmac*'
  # The SHA-256 kernel and its buffering, and the Montgomery kernels and
  # RSA on top of them, again under ASan/UBSan: the accelerated SHA-256
  # kernel reads whole blocks straight from callers' buffers, and the
  # fixed-width Montgomery kernel carries through stack arrays.
  cmake --preset asan >/dev/null
  cmake --build build-asan -j "$(nproc)" --target crypto_test >/dev/null
  ./build-asan/tests/crypto_test \
    --gtest_filter='Sha256*:Hmac*:Montgomery*:Rsa*:BigUInt*'
  SMOKE=1 ./scripts/bench_snapshot.sh
  echo "tier1 --bench: OK"
  exit 0
fi

if [[ "${1:-}" == "--load" ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" --target bb_pool_equivalence_test load_broker \
    fig3_signalling_latency tunnel_scaling >/dev/null
  workdir=$(mktemp -d)
  trap 'rm -rf "$workdir"' EXIT

  # Decision-for-decision equivalence of the timeline pool vs the original
  # scan (the reference oracle) — default build, then ASan/UBSan.
  ./build/tests/bb_pool_equivalence_test
  cmake --preset asan >/dev/null
  cmake --build build-asan -j "$(nproc)" --target bb_pool_equivalence_test >/dev/null
  ./build-asan/tests/bb_pool_equivalence_test
  echo "tier1 --load: pool equivalence OK (default + asan)"

  # Throughput gate: timeline pool >= 5x the reference scan at 10k live
  # reservations (small --smoke iteration counts; the bench prints
  # "RESULT pool_speedup_10k=<x>" and exits nonzero on its own checks).
  (cd "$workdir" && "$OLDPWD/build/bench/load_broker" --smoke \
    > load_broker.stdout.txt) || {
      cat "$workdir/load_broker.stdout.txt"; exit 1; }
  python3 - "$workdir/load_broker.stdout.txt" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"RESULT pool_speedup_10k=([0-9.]+)", text)
if not m:
    sys.exit("FAIL: load_broker did not report pool_speedup_10k")
speedup = float(m.group(1))
print(f"tier1 --load: timeline pool speedup at 10k live = {speedup:.1f}x")
if speedup < 5.0:
    sys.exit(f"FAIL: pool speedup {speedup:.2f}x below the 5x gate")
EOF

  # Protocol byte-identity: the fig3 stdout must match the committed
  # BENCH_fig3.json snapshot exactly (grants, latencies, counters — the
  # new wall-clock e2e_bb_admission_us series lives only in the metrics
  # snapshot, never in stdout), and tunnel_scaling must be run-to-run
  # deterministic.
  (cd "$workdir" && "$OLDPWD/build/bench/fig3_signalling_latency" \
    > fig3.stdout.txt)
  python3 - "$workdir/fig3.stdout.txt" BENCH_fig3.json <<'EOF'
import json, sys
fresh = open(sys.argv[1]).read()
committed = json.load(open(sys.argv[2]))["stdout"]
if fresh != committed:
    sys.exit("FAIL: fig3 stdout diverged from the committed BENCH_fig3.json")
print("tier1 --load: fig3 stdout byte-identical to committed snapshot")
EOF
  (cd "$workdir" && "$OLDPWD/build/bench/tunnel_scaling" > tunnel.a.txt \
    && "$OLDPWD/build/bench/tunnel_scaling" > tunnel.b.txt)
  cmp "$workdir/tunnel.a.txt" "$workdir/tunnel.b.txt"
  echo "tier1 --load: tunnel_scaling stdout run-to-run identical"
  echo "tier1 --load: OK"
  exit 0
fi

if [[ "${1:-}" == "--recovery" ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" --target bb_wal_recovery_test \
    bb_recovery_soak_test >/dev/null

  # Differential replay: snapshot + WAL tail into a blank broker must
  # reproduce the exact pre-crash pool timeline (torn tails dropped,
  # tampered logs refused) — default build first.
  ./build/tests/bb_wal_recovery_test
  # Crash/recover soak: brokers killed mid-traffic via the fault fabric,
  # recovered from disk and compared against the live oracle; reproducible
  # with E2E_SOAK_SEED=<seed>.
  ./build/tests/bb_recovery_soak_test
  echo "tier1 --recovery: differential + soak OK (default build)"

  # Same suites again under ASan/UBSan — replay touches freshly rebuilt
  # broker state, so lifetime bugs would hide in the default build.
  cmake --preset asan >/dev/null
  cmake --build build-asan -j "$(nproc)" --target bb_wal_recovery_test \
    bb_recovery_soak_test >/dev/null
  ./build-asan/tests/bb_wal_recovery_test
  ./build-asan/tests/bb_recovery_soak_test
  echo "tier1 --recovery: differential + soak OK (asan)"
  echo "tier1 --recovery: OK"
  exit 0
fi

if [[ "${1:-}" == "--daemon" ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" --target net_stream_test daemon_soak_test \
    daemon_admin_test bbd fig3_signalling_latency tunnel_scaling >/dev/null
  workdir=$(mktemp -d)
  trap 'rm -rf "$workdir"' EXIT

  # Framing robustness, the in-process daemon integration suite and the
  # pipelining suite — default build first.
  ./build/tests/net_stream_test
  # Multi-process soak: the real bbd binary + N client processes mixing
  # reserve/release/abrupt-exit, then SIGKILL + restart with --recover.
  ./build/tests/daemon_soak_test
  # Multi-process admin conformance: scrape a live loaded bbd, check
  # /metrics families against the catalog and /statz connection totals,
  # round-trip /tracez through tracedump, verify the drain snapshot.
  ./build/tests/daemon_admin_test
  echo "tier1 --daemon: stream/soak/admin suites OK (default build)"

  # The same suites under ASan/UBSan — the socket paths shuffle raw byte
  # buffers across threads and processes, so lifetime bugs would hide in
  # the default build.
  cmake --preset asan >/dev/null
  cmake --build build-asan -j "$(nproc)" --target net_stream_test daemon_soak_test \
    daemon_admin_test >/dev/null
  ./build-asan/tests/net_stream_test
  ./build-asan/tests/daemon_soak_test
  ./build-asan/tests/daemon_admin_test
  echo "tier1 --daemon: stream/soak/admin suites OK (asan)"

  # And under ThreadSanitizer: requests and the admin plane both execute
  # on the one loop thread, so there is no admin thread to race. What is
  # left is in-process client threads (the tests' own, the pipelined
  # fleet) against the loop, through the state they still share: the
  # process-global metrics registry, the audit log and logging. The
  # stream suites and the admin-plane conformance suite run here.
  cmake --preset tsan >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target net_stream_test daemon_admin_test \
    >/dev/null
  ./build-tsan/tests/net_stream_test
  ./build-tsan/tests/daemon_admin_test
  # net_daemon_test.cpp's cases once more, repeated: the daemon loop thread
  # and the test's client thread both sign and verify in one process, each
  # on its own thread_local verify and Montgomery caches, and
  # GrantBytesMatchInMemoryWorld builds a second world on the test thread.
  ./build-tsan/tests/net_stream_test --gtest_filter='Daemon.*' \
    --gtest_repeat=2
  echo "tier1 --daemon: stream and admin suites OK under TSan"

  # Scrape conformance: a live bbd with --admin must serve /healthz,
  # /statz (valid JSON with connection totals) and a parseable /metrics
  # whose every family appears backticked in docs/OBSERVABILITY.md
  # (histogram series fold their _bucket/_sum/_count suffixes first).
  ./build/tools/bbd --listen "unix:$workdir/bbd.sock" \
    --admin "unix:$workdir/admin.sock" --domains 3 \
    --metrics-out "" > "$workdir/bbd.stdout.txt" &
  bbd_pid=$!
  trap 'kill "$bbd_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
  python3 - "$workdir/admin.sock" docs/OBSERVABILITY.md <<'EOF'
import json, re, socket, sys, time

def get(path, patience=30.0):
    deadline = time.monotonic() + patience
    while True:
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sys.argv[1])
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
    sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    sock.close()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body.decode()

status, body = get("/healthz")
assert status == 200 and body == "ok\n", (status, body)

status, body = get("/statz")
assert status == 200, status
statz = json.loads(body)
assert statz["totals"]["connections"] == len(statz["connections"]), statz

status, body = get("/metrics")
assert status == 200, status
doc = open(sys.argv[2]).read()
families = set()
for line in body.splitlines():
    if not line or line.startswith("#"):
        continue
    name = re.split(r"[{ ]", line, 1)[0]
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and f"`{name[:-len(suffix)]}`" in doc:
            name = name[:-len(suffix)]
            break
    families.add(name)
assert families, "empty /metrics scrape"
undocumented = sorted(f for f in families if f"`{f}`" not in doc)
if undocumented:
    sys.exit("FAIL: live /metrics families missing from "
             "docs/OBSERVABILITY.md:\n  " + "\n  ".join(undocumented))
print(f"tier1 --daemon: scrape conformance OK "
      f"({len(families)} families, all documented)")
EOF
  kill -TERM "$bbd_pid"
  wait "$bbd_pid"
  trap 'rm -rf "$workdir"' EXIT

  # Byte-identity: fig3 and tunnel_scaling rerun as communicating OS
  # processes (--daemon forks a broker daemon on a UNIX socket) must print
  # byte-identical protocol output — tables, PASS lines and the
  # E2E_GRANT_DUMP grant bytes. Only the "metrics snapshot:" line is
  # filtered (the in-memory run drops a snapshot file; the daemon's
  # registry lives in the daemon process and is queried over the wire).
  for bench in fig3_signalling_latency tunnel_scaling; do
    (cd "$workdir" && E2E_GRANT_DUMP=1 "$OLDPWD/build/bench/$bench" \
      | sed '/^  metrics snapshot: /d' > "$bench.local.txt")
    (cd "$workdir" && E2E_GRANT_DUMP=1 "$OLDPWD/build/bench/$bench" --daemon \
      | sed '/^  metrics snapshot: /d' > "$bench.daemon.txt")
    cmp "$workdir/$bench.local.txt" "$workdir/$bench.daemon.txt"
    echo "tier1 --daemon: $bench in-memory vs daemon byte-identical" \
      "(grant bytes included)"
  done
  echo "tier1 --daemon: OK"
  exit 0
fi

if [[ "${1:-}" == "--soak" ]]; then
  cmake --preset asan >/dev/null
  cmake --build build-asan -j "$(nproc)" --target sig_soak_test sig_test
  # Three fixed seeds: every trial prints its mix + seed, so a failure is
  # reproducible with E2E_SOAK_SEED=<seed> ./build-asan/tests/sig_soak_test.
  for seed in 20010801 31337 987654321; do
    echo "tier1 --soak: running sig_soak_test with E2E_SOAK_SEED=$seed"
    E2E_SOAK_SEED=$seed ./build-asan/tests/sig_soak_test
  done
  # Every path through sig/exchange.cpp: lost requests and replies,
  # duplicates, corruption, budget exhaustion and the failure matrix; and
  # the channel handshake driver with its halves' parsing of peer bytes.
  ./build-asan/tests/sig_test \
    --gtest_filter='Retry*:Exchange*:FailureMatrix*:FailureInjection*:Channel*'
  echo "tier1 --soak: OK"
  exit 0
fi

if [[ "${1:-}" == "--obs" ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" --target obs_test obs_propagation_soak_test \
    micro_obs tracedump >/dev/null
  workdir=$(mktemp -d)
  trap 'rm -rf "$workdir"' EXIT

  # Both directions of the documented telemetry contract: metrics, span
  # schema, audit schema, TraceContext wire tags.
  ./build/tests/obs_test --gtest_filter='TelemetryContract.*'

  # Seeded propagation soak: collector tree == source-side reference tree
  # under faults/retries, audit chain integrity + tamper detection.
  ./build/tests/obs_propagation_soak_test

  # The operator CLI must be bit-for-bit deterministic, faults included.
  ./build/tools/tracedump --faults > "$workdir/dump.a"
  ./build/tools/tracedump --faults > "$workdir/dump.b"
  cmp "$workdir/dump.a" "$workdir/dump.b"
  echo "tier1 --obs: tracedump --faults deterministic"

  # Overhead gate: the fully instrumented fig3 hot path (arg 1) must stay
  # within 5% of the recorder-detached baseline (arg 0), by median of 7.
  ./build/bench/micro_obs --benchmark_filter='BM_Fig3HotPath' \
    --benchmark_repetitions=7 --benchmark_report_aggregates_only=true \
    --benchmark_out="$workdir/micro_obs.json" \
    --benchmark_out_format=json >/dev/null
  python3 - "$workdir/micro_obs.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
med = {b["run_name"]: b["real_time"] for b in doc["benchmarks"]
       if b.get("aggregate_name") == "median"}
base, traced = med["BM_Fig3HotPath/0"], med["BM_Fig3HotPath/1"]
overhead = (traced - base) / base * 100.0
print(f"tier1 --obs: fig3 hot path baseline={base:.1f}us "
      f"traced={traced:.1f}us overhead={overhead:+.2f}%")
if overhead > 5.0:
    sys.exit("FAIL: observability overhead exceeds the 5% budget")
EOF
  echo "tier1 --obs: OK"
  exit 0
fi

cmake -B build -S . >/dev/null

# Force the obs sources to recompile so their warnings (if any) are
# visible in this build's output even on incremental runs.
find build -name '*.o' -path '*obs*' -delete 2>/dev/null || true

build_log=$(mktemp)
trap 'rm -f "$build_log"' EXIT
cmake --build build -j "$(nproc)" 2>&1 | tee "$build_log"

if grep -E 'warning:' "$build_log" | grep -q 'src/obs/\|obs/metrics\|obs/trace\|obs/instruments'; then
  echo "FAIL: compiler warnings in src/obs/:" >&2
  grep -E 'warning:' "$build_log" | grep 'obs' >&2
  exit 1
fi

# Metrics/doc contract, code -> doc direction: every e2e_* series name
# that appears as a string literal in src/ must be documented (in
# backticks) in docs/OBSERVABILITY.md. The doc -> code direction (every
# documented name really emitted) is tests/obs_contract_test.cpp.
python3 - <<'EOF'
import pathlib, re, sys
root = pathlib.Path(".")
names = set()
for path in root.glob("src/**/*"):
    if path.suffix not in (".hpp", ".cpp"):
        continue
    names.update(re.findall(r'"(e2e_[a-z0-9_]+)"', path.read_text()))
doc = (root / "docs" / "OBSERVABILITY.md").read_text()
missing = sorted(n for n in names if f"`{n}`" not in doc)
if missing:
    sys.exit("FAIL: metric series named in src/ but missing from "
             "docs/OBSERVABILITY.md:\n  " + "\n  ".join(missing))
print(f"tier1: docs lint OK ({len(names)} e2e_* series all documented)")
EOF

# One-owner-thread contract (docs/ARCHITECTURE.md): one thread owns a
# world, and one loop thread serves a bbd, so the library core a world is
# made of, the world kit, the daemon service and the observability code
# the loop alone drives carry no locks, atomics or condition variables.
# What other threads in one process still reach lives outside this set:
# the process-global metrics registry (obs/metrics.*), the audit log
# (obs/audit.*), logging, and StreamServer's wake-pipe entry points.
python3 - <<'EOF'
import pathlib, re, sys
pattern = re.compile(
    r"std::mutex|std::atomic|condition_variable|<mutex>|<atomic>")
paths = []
for top in ("src/bb", "src/sig", "src/crypto", "src/policy", "src/kit",
            "src/obs"):
    paths += sorted(pathlib.Path(top).rglob("*"))
paths += sorted(pathlib.Path("src/net").glob("bbd_service.*"))
shared = {"metrics", "audit"}  # src/obs files other threads still reach
hits = []
for path in paths:
    if path.suffix not in (".hpp", ".cpp"):
        continue
    if path.parent == pathlib.Path("src/obs") and path.stem in shared:
        continue
    for no, line in enumerate(path.read_text().splitlines(), 1):
        if pattern.search(line):
            hits.append(f"{path}:{no}: {line.strip()}")
if hits:
    sys.exit("FAIL: thread-safety machinery in one-owner-thread code "
             "(docs/ARCHITECTURE.md):\n  " + "\n  ".join(hits))
print("tier1: owner-thread lint OK (no mutex/atomic/condition_variable in "
      "src/bb, src/sig, src/crypto, src/policy, src/kit, "
      "src/net/bbd_service.*, src/obs except metrics.* and audit.*)")
EOF

ctest --test-dir build --output-on-failure -j "$(nproc)"
echo "tier1: OK"
