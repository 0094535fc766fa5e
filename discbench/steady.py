#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with its own seed,
and report each end-to-end metric's quartiles and spread (IQR over
median), the check the benchmark's bounds are held to.

Usage, from the root of the checkout:

    python3 discbench/steady.py [--seeds 10] [--first-seed 1]
        [--workloads a,b] [--seconds N] [--write discbench/STEADINESS.json]

--write records the host fingerprint and every workload's quartiles in
the named file.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host():
    quota = "unknown"
    for path in ("/sys/fs/cgroup/cpu.max",  # cgroup v2: "<quota|max> <period>"
                 "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):  # v1: -1 = no quota
        try:
            with open(path) as f:
                quota = "%s: %s" % (path, f.read().strip())
            break
        except OSError:
            pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "gomaxprocs": os.environ.get("GOMAXPROCS", str(os.cpu_count())),
        "go": go,
        "cgroup_cpu_max": quota,
        "machine": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--write", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"host": host(), "run_seconds": seconds, "seeds": [], "workloads": {}}
    worst = 0.0
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit("%s seed %d: exit %d\n%s" % (name, seed, p.returncode, p.stderr))
            out = json.loads(p.stdout.strip().splitlines()[-1])
            if not out["correct"] or out["failed"]:
                sys.exit("%s seed %d: incorrect\n%s" % (name, seed, p.stderr))
            for k, v in out["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print("%s seed %d (%.0fs): %s" % (name, seed, time.time() - t0,
                  " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(out["metrics"].items()))),
                  flush=True)
        rows = {}
        for k, vs in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            rows[k] = {"q1": q1, "median": q2, "q3": q3, "spread": spread,
                       "bound": bounds.get(k)}
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print("  %-12s median %-10.4g spread %.3f (bound %.2f)%s" % (
                k, q2, spread, bounds[k], "  <-- over a third" if spread > bounds[k] / 3 and k != "setup_s" else ""),
                flush=True)
        record["workloads"][name] = rows
    record["seeds"] = list(range(args.first_seed, args.first_seed + args.seeds))
    print("worst spread/bound (setup_s excluded): %.3f" % worst)
    if args.write:
        with open(os.path.join(ROOT, args.write), "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
