"""Steadiness check: repeat every workload and hold the spread to the bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 2]

Runs ``run.py`` (untraced, ``run_seconds`` of BENCHMARK.json) ``--runs``
times per workload in each of ``--sets`` sets, each run in a fresh process
with its own seed (0, 1, 2, ... across the sets), the workloads
interleaved so that slow spells of the machine spread over all of them.
For every end-to-end metric and workload it prints the median and
quartiles of each set, and for ``ops_per_s`` and ``setup_s`` also the
spread of the figures at the speed the machine ran (not scaled by the
speed factor of ``refspeed``), and checks, against the bounds in
BENCHMARK.json:

- the quartile spread (q3 - q1) / median of each set is within the bound;
- the median of each later set is not worse than the first set's by more
  than the bound, ``setup_s`` included;
- every run is correct, and the share of failed operations is the same in
  every set.

Writes all values to ``perfbench/out/runs/`` and exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import env

RUN_TIMEOUT_S = 900


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(env.ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=env.ROOT,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = [line for line in proc.stderr.splitlines() if line.startswith("# raw ")]
    out["raw"] = json.loads(raw[-1][len("# raw "):])
    return out


def worse_by(metric, first, later):
    """Share by which ``later`` is worse than ``first`` (negative: better)."""
    if metric["better"] == "lower":
        return later / first - 1.0
    return 1.0 - later / first


def main(argv=None):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.runs < 4 or args.sets < 1:
        parser.error("need at least 4 runs (quartiles) and 1 set")

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = s * args.runs + i
            for w in workloads:
                t0 = time.perf_counter()
                out = run_once(w, seed, seconds)
                out["seed"] = seed
                results[w][s].append(out)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: correct={out['correct']} "
                      f"{values} ({time.perf_counter() - t0:.0f} s)", flush=True)

    problems = []
    print()
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(results[w]):
                q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / median
                medians.append(median)
                unscaled = ""
                if name in runs[0]["raw"]:
                    r1, rm, r3 = quartiles([r["raw"][name] for r in runs])
                    unscaled = f"; unscaled spread {(r3 - r1) / rm:.3f}"
                print(f"{w:20s} {name:12s} set {s + 1}: median {median:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f} (bound {bound})"
                      f"{unscaled}")
                if spread > bound:
                    problems.append(f"{w} {name} set {s + 1}: spread {spread:.3f} > {bound}")
            for s, median in enumerate(medians[1:], start=2):
                worse = worse_by(metric, medians[0], median)
                if worse > bound:
                    problems.append(f"{w} {name}: set {s} median worse than set 1 "
                                    f"by {worse:.3f} > {bound}")
        shares = set()
        for runs in results[w]:
            if not all(r["correct"] for r in runs):
                problems.append(f"{w}: a run reported correct=false")
            shares.add(Fraction(sum(r["failed"] for r in runs),
                                sum(r["attempted"] for r in runs)))
        if len(shares) > 1:
            problems.append(f"{w}: failed shares differ between sets: {sorted(shares)}")

    out_dir = env.OUT / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "results": results,
                                "problems": problems}, indent=1))
    print(f"\nresults written to {path.relative_to(env.ROOT)}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
