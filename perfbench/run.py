#!/usr/bin/env python3
"""Benchmark of record for qbpart.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload paper_table3 --seed 1 --seconds 25 --trace 0

builds perfbench/perfbench.exe with dune, unpacks the committed Table I
inputs, runs the workload in its own process and relays
its report; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.

Other modes:

    python3 perfbench/run.py --self-test
        tiny size of every workload, both trace modes; fails when a metric
        named in BENCHMARK.json is missing or has the wrong unit
    python3 perfbench/run.py --spread WORKLOAD --seeds 1,2,3,4,5
        runs a workload once per seed and prints each end-to-end metric's
        quartile spread (IQR / median) against its bound
    python3 perfbench/run.py --make-inputs
        regenerates perfbench/inputs/table3.tar.gz with gen.exe (see gen.ml)
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REL = os.path.relpath(HERE, ROOT)
INPUTS = os.path.join(HERE, "inputs", "table3.tar.gz")
RUN_LIMIT_S = 175.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets):
    """Build the benchmark executables from the checkout's sources."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        log("perfbench: the qbpart sources (dune-project, lib/) are missing")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"]
    if not shutil.which("dune") and shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--display", "quiet"]
    cmd += ["./%s/%s" % (REL, t) for t in targets]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stdin=subprocess.DEVNULL, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: build failed: %s" % e)
        return False
    if r.returncode != 0:
        log("perfbench: build failed (exit %d)" % r.returncode)
        return False
    return True


def exe(name):
    return os.path.join(ROOT, "_build", "default", REL, name)


def unpack_inputs(workdir):
    """The committed Table I circuits (paper_table3; ckta for served_eco)."""
    dest = os.path.join(workdir, "inputs")
    with tarfile.open(INPUTS) as t:
        for m in t.getmembers():
            if not m.isfile() or "/" in m.name.strip("./") or m.name.startswith(".."):
                continue
            m.name = os.path.basename(m.name)
            t.extract(m, dest)
    return dest


def run_workload(workload, seed, seconds, trace, tiny=False, limit=RUN_LIMIT_S):
    """Run one workload process; returns (stdout lines, result dict or None)."""
    workdir = os.path.join(ROOT, ".perfbench_run", "%d-%s" % (os.getpid(), workload))
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = unpack_inputs(workdir)
        cmd = [exe("perfbench.exe"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--inputs", os.path.relpath(inputs, ROOT),
               "--workdir", os.path.relpath(workdir, ROOT)]
        if tiny:
            cmd.append("--tiny")
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("perfbench: %s timed out after %.0fs" % (workload, limit))
            return [], None
        lines = out.splitlines()
        if proc.returncode != 0 or not lines:
            log("perfbench: %s exited with %d" % (workload, proc.returncode))
            return lines, None
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log("perfbench: %s printed no JSON result" % workload)
            return lines, None
        return lines[:-1], result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def valid(result, names):
    keys = {"correct", "attempted", "failed", "metrics"}
    return (isinstance(result, dict) and set(result) == keys
            and set(result["metrics"]) == set(names))


def main_run(args):
    start = time.time()
    if not build(["perfbench.exe"]):
        return 1
    built = time.time() - start
    b = spec()
    names = [m["name"] for m in (b["per_layer"] if args.trace else b["end_to_end"])]
    # an up-to-date build leaves the run the rest of the 180 s budget; the
    # first, compiling run in a fresh checkout gets a full window after it
    limit = RUN_LIMIT_S - built if built < 60 else RUN_LIMIT_S
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                 limit=limit)
    for line in lines:
        print(line)
    if result is None:
        return 1
    if not valid(result, names):
        log("perfbench: result does not carry exactly the metrics in BENCHMARK.json")
        return 1
    print(json.dumps(result), flush=True)
    return 0


def self_test():
    """Tiny size of every workload in both trace modes."""
    if not build(["perfbench.exe"]):
        return 1
    b = spec()
    ok = True
    for w in b["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_workload(w["name"], 1, 1, trace, tiny=True)
            problems = []
            if result is None:
                problems.append("no result")
            else:
                got = result["metrics"]
                for m in b[group]:
                    entry = got.get(m["name"])
                    if entry is None:
                        problems.append("missing %s" % m["name"])
                    elif entry.get("unit") != m["unit"] or not entry.get("unit"):
                        problems.append("%s: unit %r, expected %r"
                                        % (m["name"], entry.get("unit"), m["unit"]))
                extra = set(got) - {m["name"] for m in b[group]}
                if extra:
                    problems.append("unlisted metrics %s" % sorted(extra))
                if not result["correct"] or result["failed"]:
                    problems.append("correct=%s failed=%s"
                                    % (result["correct"], result["failed"]))
            print("%-14s trace %d  %s" % (w["name"], trace,
                                          "ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def spread(workload, seeds):
    """IQR / median of each end-to-end metric over one run per seed."""
    if not build(["perfbench.exe"]):
        return 1
    b = spec()
    values = {m["name"]: [] for m in b["end_to_end"]}
    for s in seeds:
        _, result = run_workload(workload, s, b["run_seconds"], 0)
        if result is None or not result["correct"]:
            print("seed %d: failed run" % s)
            return 1
        for n in values:
            values[n].append(result["metrics"][n]["value"])
        print("seed %d: %s" % (s, " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items())),
              flush=True)
    for m in b["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / abs(med) if med else float("inf")
        print("%-22s median %-12.6g spread %.4f  bound %.2f  %s"
              % (m["name"], med, share, m["bound"],
                 "ok" if share < m["bound"] / 3 else "WIDE"))
    return 0


def make_inputs():
    if not build(["gen.exe"]):
        return 1
    os.makedirs(os.path.dirname(INPUTS), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        subprocess.run([exe("gen.exe"), tmp], check=True)
        with tarfile.open(INPUTS, "w:gz") as t:
            for name in sorted(os.listdir(tmp)):
                info = t.gettarinfo(os.path.join(tmp, name), arcname=name)
                info.mtime = 0
                info.uid = info.gid = 0
                info.uname = info.gname = ""
                with open(os.path.join(tmp, name), "rb") as f:
                    t.addfile(info, f)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--spread")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--make-inputs", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.make_inputs:
        return make_inputs()
    if args.spread:
        return spread(args.spread, [int(s) for s in args.seeds.split(",")])
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
