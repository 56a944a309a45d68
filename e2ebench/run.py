#!/usr/bin/env python3
"""End-to-end LoopPoint benchmark: build, run one workload, report.

Run from the root of a checkout (it needs BENCHMARK.json, src/ and
e2ebench/):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--workload-seed W] [--out RESULTS.jsonl]
    python3 e2ebench/run.py record

The first form builds e2ebench/ (Release) into .bench_build/, runs the
workload for S seconds and prints every metric by name; its last line
is one JSON object with the keys correct, attempted, failed and
metrics (the end_to_end metrics of BENCHMARK.json with --trace 0, the
per_layer ones with --trace 1). --out appends the full result, with
per-metric sample counts and provenance, to a JSON-lines file that
e2ebench/diff.py compares. --workload-seed (default 42) is forwarded
to LoopPointOptions::seed and so changes the simulated inputs; --seed
only orders the sweep's points. The second form re-records the
expected output fingerprints (e2ebench/expected.txt, workload seeds 42
and 7) after a deliberate change of simulated outputs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXPECTED = os.path.join(BENCH_DIR, "expected.txt")
RECORDED_SEEDS = (42, 7)
BINARY = os.path.join(BUILD_DIR, "e2e_bench")


def local_env():
    """Environment whose temporary files (compiler, library) stay in the
    checkout."""
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json in %s: %s" % (os.getcwd(), e))


def build():
    """Configure (once) and build the benchmark; output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=local_env()).returncode:
                with open(log_path) as f:
                    tail = f.read().splitlines()[-20:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), "\n".join(tail)))


def source_hash():
    """SHA-1 over the sources the benchmark builds (src/ and e2ebench/)."""
    h = hashlib.sha1()
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run_binary(workload, seed, workload_seed, seconds, trace, expected):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--workload-seed", str(workload_seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if expected:
        cmd += ["--expected", EXPECTED]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + 150, env=local_env())
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("e2e_bench exited with %d" % proc.returncode)
    return lines[:-1], json.loads(lines[-1])


def record():
    """Re-record expected fingerprints for every workload and seed."""
    workloads = [w["name"] for w in load_spec()["workloads"]]
    build()
    rows = []
    for workload in workloads:
        for seed in RECORDED_SEEDS:
            _, res = run_binary(workload, 42, seed, 0, 0, expected=False)
            if not res["correct"]:
                fail("%s seed %d failed its own checks" % (workload, seed))
            rows.append("%s %d %s" % (workload, seed, res["fingerprint"]))
            print(rows[-1], flush=True)
    with open(EXPECTED, "w") as f:
        f.write("# workload seed sha1-of-%.17g-output-fingerprint\n")
        f.write("\n".join(rows) + "\n")


def main():
    if sys.argv[1:] == ["record"]:
        record()
        return
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workload-seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    start = time.time()
    lines, res = run_binary(args.workload, args.seed, args.workload_seed,
                            args.seconds, args.trace, expected=True)
    for line in lines:
        print(line)

    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        fail("metrics not produced: " + ", ".join(missing))
    provenance = {
        "git_sha": git_sha(), "source_sha1": source_hash(),
        "nproc": res["nproc"], "host_workers": res["jobs"],
        "sim_threads": res["sim_threads"], "build_type": res["build_type"],
        "compiler": res["compiler"], "seed": args.seed,
        "workload_seed": args.workload_seed,
        "timestamp": int(start),
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if args.out:
        record_ = dict(res, provenance=provenance)
        with open(args.out, "a") as f:
            f.write(json.dumps(record_, sort_keys=True) + "\n")
    metrics = {m["name"]: {"value": res["metrics"][m["name"]]["value"],
                           "unit": res["metrics"][m["name"]]["unit"]}
               for m in wanted}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
