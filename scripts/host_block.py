"""Host block for the BENCH_*.json snapshots.

    from host_block import host_block
    doc["host"] = host_block()

Records the core count, the build type, compiler and commit of ./build, and
whether the CPU has the SHA extensions (the SHA-256 kernel the crypto layer
selects at run time depends on it). Run from the repository root.
"""

import os
import re
import subprocess


def cpu_has_sha_ni():
    """True/False from the Linux CPU flags; None where they are not readable."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            text = cpuinfo.read()
    except OSError:
        return None
    return re.search(r"^flags\s*:.*\bsha_ni\b", text, re.M) is not None


def host_block():
    cache = open("build/CMakeCache.txt").read()

    def cache_value(key):
        m = re.search(rf"^{key}:[A-Z]+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "bench"],
        capture_output=True, text=True).stdout.strip()
    return {
        "cores": os.cpu_count(),
        "build_type": cache_value("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "compiler": version,
        "commit": commit + ("+uncommitted" if dirty else ""),
        "sha_ni": cpu_has_sha_ni(),
    }
