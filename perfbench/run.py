"""bwgan benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``bwgan`` is imported from that
checkout's ``src``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, from a run whose first
half is untraced (for the overhead ratio) and whose second half is traced.
A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import env

SETUP_PROBES = 7          # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT_S = 120
MIN_ROUNDS = 2            # the train-* digest check compares two rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_rounds(workload, seconds, min_rounds, speed, tracer=None):
    """Whole rounds until the next would likely end past ``seconds``.

    Returns the throughput of each timing sample (operations per timed
    second) at the speed the machine ran, and the speed factors measured
    before the first round and after each round.
    """
    rates, factors, rounds = [], [speed()], 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.enter("bench.round")
        try:
            samples = workload.run_round()
        finally:
            if tracer is not None:
                tracer.exit()
        factors.append(speed())
        rounds += 1
        rates += [ops / timed for ops, timed in samples if ops]
        now = time.perf_counter()
        if rounds >= min_rounds and (now - start) + (now - round_start) > seconds:
            return rates, factors


def setup_probes(workload_name, seed, speed):
    """Set-up times of fresh interpreters, at the speed the machine ran,
    and the speed factors measured before the first probe and after each."""
    times, factors = [], [speed()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(env.ROOT / "perfbench" / "probe_setup.py"),
             workload_name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        factors.append(speed())
        times.append(float(proc.stdout))
    return times, factors


def nominal_rate(rates, factors):
    """Median throughput at nominal machine speed: the run's median rate
    over the median of the speed factors measured during it."""
    return statistics.median(rates) / statistics.median(factors)


def expected_metrics(trace):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    try:
        env.prepare()
    except env.CheckoutError as exc:
        sys.exit(f"run.py: {exc}")
    expected = expected_metrics(args.trace)

    from refspeed import NumpySpeed
    from workloads import WORKLOADS
    import bwgan
    import numpy
    import scipy
    env.check_origin(bwgan)
    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    speed = NumpySpeed()

    values = None  # stays None if too few operations completed to measure
    if args.trace:
        import tracing
        units = tracing.per_layer_units()
        half = args.seconds / 2.0
        plain = run_rounds(workload, half, 1, speed)
        untraced_ops = workload.attempted
        tracer = tracing.Tracer()
        workload.unobserved = tracer.paused
        tracer.install()
        try:
            traced = run_rounds(workload, half, 1, speed, tracer)
        finally:
            tracer.uninstall()
        if plain[0] and traced[0]:
            values = tracer.metrics(workload.attempted - untraced_ops)
            values["trace.overhead_ratio"] = nominal_rate(*plain) / nominal_rate(*traced)
        trace_path = env.OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"# {len(tracer.spans)} spans written to "
              f"{trace_path.relative_to(env.ROOT)}", file=sys.stderr)
    else:
        units = {"ops_per_s": "op/s", "setup_s": "s", "peak_rss_mb": "MB"}
        setup_times, setup_factors = setup_probes(args.workload, args.seed, speed)
        rates, factors = run_rounds(workload, args.seconds, MIN_ROUNDS, speed)
        if rates:
            values = {"ops_per_s": nominal_rate(rates, factors),
                      "setup_s": (statistics.median(setup_times)
                                  * statistics.median(setup_factors)),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            # the figures at the speed the machine ran, for steady.py
            print("# raw " + json.dumps({"ops_per_s": statistics.median(rates),
                                         "setup_s": statistics.median(setup_times)}),
                  file=sys.stderr)

    for message in workload.operation_errors:
        print(f"FAILED: {message}", file=sys.stderr)
    if values is None:
        sys.exit(f"run.py: {workload.failed} of {workload.attempted} {workload.op}s failed; "
                 "too few completed to measure")
    if {k: units[k] for k in values} != expected:
        raise RuntimeError("metrics emitted do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(expected))}")
    failures = workload.failures()
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {workload.attempted} "
          f"{workload.op}s attempted, {workload.failed} failed; numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, BLAS threads {env.BLAS_THREADS}", file=sys.stderr)
    for name, value in values.items():
        print(f"#   {name:40s} {value:14.6g} {units[name]}", file=sys.stderr)
    result = {"correct": not failures, "attempted": workload.attempted,
              "failed": workload.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
