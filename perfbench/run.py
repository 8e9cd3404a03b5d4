"""tropcalc benchmark: one workload, one process, one caller.

    python3 perfbench/run.py --workload denote --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
run generates a fixed list of operations from the seed, sized so that it
takes about --seconds today, does an untimed warm-up pass, times every
operation, checks every output against the oracles, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
same list runs once untraced and once with every layer's public functions
wrapped (see tracing.py); the metrics are then the per-layer ones, and
spans and per-operation stdout digests go to perfbench/out/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

# operations per second of --seconds, measured at the commit that added
# the benchmark (2 vCPU sandbox); the list is never shorter than MIN_OPS
NOMINAL_RATE = {"denote": 4.5, "operational": 20.0, "recursive": 5.0}
MIN_OPS = 100
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_RATE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tropcalc", "cli.py")):
        sys.exit(f"perfbench: no tropcalc sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import tropcalc.cli  # noqa: F401


def make_ops(workload: str, seed: int, seconds: float):
    import workloads as W

    classes, warmup, per_draw = W.WORKLOADS[workload]
    n = max(MIN_OPS, round(NOMINAL_RATE[workload] * seconds))
    ops = W.build(classes, -(-n // per_draw), random.Random(f"{workload}:{seed}"))
    return ops, warmup(random.Random(f"{workload}:{seed}:warmup"))


def run_pass(ops):
    """Time each operation; keep outputs and errors for the checks."""
    times, outs, errors = [], [], {}
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            outs.append(op.run())
        except Exception as e:  # an operation that raises is counted as failed
            outs.append(None)
            errors[i] = f"{type(e).__name__}: {e}"
        times.append(time.perf_counter() - t)
    return time.perf_counter() - t0, times, outs, errors


def check_pass(ops, outs, errors):
    """Oracle checks; returns {index: message} for wrong answers."""
    import oracles as O

    wrong = {}
    groups: dict = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        if i in errors:
            continue
        try:
            op.check(out)
            if op.monotone:
                key, cap, value = op.monotone
                groups.setdefault(key, []).append((cap, value(json.loads(out)), i))
        except (O.Mismatch, KeyError, TypeError, ValueError) as e:
            wrong[i] = f"{type(e).__name__}: {e}"
    for key, vals in groups.items():
        try:
            O.expect_non_increasing([(c, v) for c, v, _ in vals], f"value of {key[0]} at {key[1]}")
        except O.Mismatch as e:
            wrong[max(vals)[2]] = str(e)
    return wrong


def digest(out) -> str:
    text = out if isinstance(out, str) else repr(out)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    t_import = time.perf_counter() - T_START

    # set-up: generate the list and do the warm-up pass, several times
    reps = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops, warm = make_ops(args.workload, args.seed, args.seconds)
        _, _, wouts, werrors = run_pass(warm)
        reps.append(time.perf_counter() - t)
    wwrong = check_pass(warm, wouts, werrors)
    setup_s = t_import + statistics.median(reps)

    wall, times, outs, errors = run_pass(ops)
    wrong = check_pass(ops, outs, errors)
    failures = {**errors, **wrong}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [op.label for op in ops],
        "times": times,
    }

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            twall, ttimes, touts, terrors = tracer.run_ops(ops, run_pass)
        twrong = check_pass(ops, touts, terrors)
        for i, msg in {**terrors, **twrong}.items():
            failures.setdefault(i, f"traced: {msg}")
        wrong.update(twrong)
        metrics = tracer.metrics(untraced_wall=wall, traced_wall=twall)
        report.update(
            traced_times=ttimes,
            digests=[digest(o) for o in touts],
            spans=tracer.spans,
        )
    else:
        metrics = {
            "ops_per_s": metric(len(ops) / wall, "1/s"),
            "op_p50_s": metric(statistics.median(times), "s"),
            "op_p90_s": metric(statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": metric(setup_s, "s"),
        }

    for i, msg in sorted(failures.items()):
        print(f"FAILED op {i} ({ops[i].label}): {msg}", file=sys.stderr)
    for i, msg in {**werrors, **wwrong}.items():
        print(f"FAILED warm-up op {i} ({warm[i].label}): {msg}", file=sys.stderr)
    report["failures"] = {ops[i].label + f" #{i}": msg for i, msg in failures.items()}

    result = {
        "correct": not wrong and not wwrong,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    report["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(report, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
