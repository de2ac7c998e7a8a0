#!/usr/bin/env python3
"""Build and run the malsched benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset.  Each workload runs in its own process.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the
lines before it start with '#'.  Every result is also saved, with run
metadata (nproc, build type, compiler, seed, commit), under
<build dir>/perfbench/results/.

--smoke runs every workload at a tiny size, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit and that
every run passed its checks (a traced run fails when it did not measure
the per-layer rows of its own workload).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["exact-mix", "zipf-open", "shard-miss", "online-replay"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    sanitize = os.environ.get("MALSCHED_SANITIZE", "")
    name = "perfbench" + ("-" + sanitize.replace(",", "-") if sanitize else "")
    return os.path.join(os.path.abspath(base), name)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    binary = os.path.join(out, "malsched_perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if os.environ.get("MALSCHED_SANITIZE"):
            configure.append("-DMALSCHED_SANITIZE=" + os.environ["MALSCHED_SANITIZE"])
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", out, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0 or not os.path.isfile(binary):
        fail("build failed")
    return binary


def source_digest():
    """sha256 over the library and benchmark sources, for provenance when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns (comment lines, result)."""
    before = cpu_times()
    lines, result = run_process(binary, workload, seed, seconds, trace, smoke)
    after = cpu_times()
    if before and after and after[1] > before[1]:
        # CPU time the hypervisor gave to other guests: a noisy host shows
        # here, not in the program.
        lines.append("# host steal: %.1f%% of CPU time during the run"
                     % (100.0 * (after[0] - before[0]) / (after[1] - before[1])))
    return lines, result


def run_process(binary, workload, seed, seconds, trace, smoke):
    out = build_dir()
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--out-dir", out]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + " did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode < 0:
        # The library aborted the process (a violated invariant): the run's
        # answer is "incorrect", with the abort message kept in view.
        notes = [line for line in lines if line.startswith("#")]
        notes += ["# " + line for line in proc.stderr.splitlines()[-5:]]
        notes.append("# CHECK FAILED: %s process died from signal %d" % (workload, -proc.returncode))
        return notes, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(workload + " printed no result line")
    return lines[:-1], result


def save(workload, seed, trace, comments, result):
    meta = {}
    for line in comments:
        if line.startswith("# meta "):
            meta = json.loads(line[len("# meta "):])
    meta.update({"nproc": os.cpu_count(), "commit": git_commit(),
                 "source_sha256": source_digest()})
    directory = os.path.join(build_dir(), "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d-trace%d.json" % (workload, seed, int(trace)))
    with open(path, "w") as handle:
        json.dump({"meta": meta, "notes": comments, "result": result}, handle, indent=1)
    return meta


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    ok = True
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            _, result = run_once(binary, workload, 1, 1, trace, smoke=True)
            attempted += result["attempted"]
            failed += result["failed"]
            metrics = result["metrics"]
            for metric in wanted:
                got = metrics.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    print("# smoke: %s trace=%d: %s missing or wrong unit (%r)"
                          % (workload, trace, metric["name"], got))
                    ok = False
            if not result["correct"]:
                print("# smoke: %s trace=%d: checks failed" % (workload, trace))
                ok = False
            print("# smoke: %s trace=%d: %d metrics" % (workload, trace, len(metrics)))
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {}}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    binary = build()
    if args.smoke:
        return smoke(binary)
    comments, result = run_once(binary, args.workload, args.seed, args.seconds,
                                bool(args.trace))
    meta = save(args.workload, args.seed, args.trace, comments, result)
    for line in comments:
        if not line.startswith("# meta "):
            print(line)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
