"""recipgeo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src and the
`recipgeo` child processes get ./src on PYTHONPATH.  With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced run;
the last line of standard output is one JSON object either way.  Outputs and
trace files go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("flow_batch", "geodesic_fan", "field_eval", "cli_session")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CLI_SUBCOMMANDS = ("verify", "geodesic", "flow", "locus", "hessian", "fisher")
# How an operation's repeats within a run become its figure.  Other tenants
# of this machine make the same work take up to twice as long, in spells of
# milliseconds to minutes.  An operation of 10 ms or more is slowed in part
# on most repeats, and its median repeat leaves out a round that fell into a
# long spell.  A field point takes about half a millisecond, so each repeat runs
# either at full speed or in a spell, and the median jumps by 1.7x when the
# share of time in spells crosses one half; its fastest repeat (of some 400
# in a run) is its time at full speed.
CREDIT = {"field_eval": min}


def import_program():
    """Import recipgeo from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "recipgeo", "__init__.py")):
        sys.exit(f"recipgeo sources not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import recipgeo
    if os.path.dirname(os.path.dirname(os.path.abspath(recipgeo.__file__))) != SRC:
        sys.exit(f"recipgeo imported from {recipgeo.__file__}, not from {SRC}")


def build_ops(workload: str, seed: int, runner=None):
    import workloads as wl
    if workload == "cli_session":
        runner = runner or wl.ProcessRunner(SRC, ROOT)
        return wl.cli_session(seed, runner, os.path.join(OUT, "cli"))
    return getattr(wl, workload)(seed)


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def run_loop(ops, seconds: float, credit):
    """Whole rounds of `ops` until `seconds` have passed.

    Every round repeats the same operations, and each operation is credited
    with `credit` of its repeats (see `CREDIT`)."""
    repeats = [[] for _ in ops]     # per op and round: (latency samples, busy time, units)
    attempted, failed, wrong_ops, rounds = 0, 0, 0, 0
    messages = Counter()
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            o = op.execute()
            f, w = op.check(o)
            attempted += 1
            if o.times:     # an operation that raised has no timings
                repeats[i].append((o.times, o.busy, o.units))
            if f or w:
                failed += 1
                wrong_ops += bool(w)
                for msg in f + w:
                    messages[f"{op.label}: {msg}"] += 1
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    done = [r for r in repeats if r]
    return dict(times=[credit(ts) for r in done for ts in zip(*(times for times, _, _ in r))],
                busy=sum(credit([busy for _, busy, _ in r]) for r in done),
                units=sum(r[0][2] for r in done), attempted=attempted, failed=failed, wrong=wrong_ops,
                messages=messages, rounds=rounds, wall=time.perf_counter() - start)


def child_wall(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=150)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import recipgeo, build the
    workload's inputs and run one untimed warm-up operation."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    return statistics.median(child_wall(argv) for _ in range(SETUP_REPEATS))


def measure_import() -> float:
    """Median time of `import recipgeo` in a fresh process."""
    code = ("import sys, time; t = time.perf_counter(); import recipgeo; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    vals = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=150).stdout
        vals.append(float(out.strip().splitlines()[-1]))
    return statistics.median(vals)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    ops = build_ops(workload, seed)
    ops[0].execute()   # warm-up, untimed and unchecked
    setup_s = measure_setup(workload, seed)
    r = run_loop(ops, seconds, CREDIT.get(workload, statistics.median))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (r["units"] / r["busy"], "1/s"),
        "op_ms_p50": (1e3 * nearest_rank(r["times"], 0.5), "ms"),
        "op_ms_p90": (1e3 * nearest_rank(r["times"], 0.9), "ms"),
    }
    return r, metrics


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    """Traced run: one warm-up operation of every workload (the probe, so that
    every layer is measured), then whole rounds of this workload.  Each metric
    comes from this workload's spans, or from the probe's when the workload
    never reaches that layer."""
    import workloads as wl
    from recipgeo import verify
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    in_process = wl.InProcessRunner(tracer)
    probe_ops = [build_ops(name, seed, in_process)[0] for name in WORKLOADS if name != "cli_session"]
    probe_ops += build_ops("cli_session", seed, in_process)
    ops = build_ops(workload, seed, in_process)
    probe_from = tracer.mark()
    for op in probe_ops:
        op.execute()
    probe_counts = Counter(tracer.counts)
    loop_from = tracer.mark()
    r = run_loop(ops, seconds, CREDIT.get(workload, statistics.median))
    loop_to = tracer.mark()
    loop_counts = Counter(tracer.counts)
    loop_counts.subtract(probe_counts)

    phases = [(tracer.aggregate(loop_from, loop_to), loop_counts, r["attempted"]),
              (tracer.aggregate(probe_from, loop_from), probe_counts, len(probe_ops))]

    def pick(name):
        for agg, counts, n_ops in phases:
            if name in agg:
                return agg, counts, n_ops
        raise KeyError(f"no span named {name}")

    def us(name):
        agg = pick(name)[0]
        calls, total, _ = agg[name]
        return total / calls / 1e3

    def self_ms(name):
        calls, _, own = pick(name)[0][name]
        return own / calls / 1e6

    m = {}
    agg, counts, n_ops = pick("ode.integrate")
    n_int = agg["ode.integrate"][0]
    m["ode.integrate.calls_per_op"] = (n_int / n_ops, "count")
    m["ode.integrate.self_ms"] = (self_ms("ode.integrate"), "ms")
    steps, _, step_self = agg["ode.step"]
    m["ode.step.calls_per_integrate"] = (steps / n_int, "count")
    m["ode.step.us"] = (step_self / steps / 1e3, "us")
    m["ode.step.accept_ratio"] = (counts["ode.step"] / steps, "ratio")
    for part in ("rhs", "stop"):
        m[f"ode.{part}.calls_per_integrate"] = (agg[f"ode.{part}"][0] / n_int, "count")
        m[f"ode.{part}.us"] = (us(f"ode.{part}"), "us")
    agg, counts, n_ops = pick("ode.dense_sample")
    m["ode.dense_sample.samples_per_op"] = (counts["ode.dense_sample"] / n_ops, "count")
    m["ode.dense_sample.us_per_sample"] = (agg["ode.dense_sample"][1] / counts["ode.dense_sample"] / 1e3, "us")
    m["flows.integrate_flow.self_ms"] = (self_ms("flows.integrate_flow"), "ms")
    m["geodesics.integrate_geodesic.self_ms"] = (self_ms("geodesics.integrate_geodesic"), "ms")
    agg, counts, _ = pick("geodesics.qr_residual")
    m["geodesics.qr_residual.us_per_sample"] = (
        agg["geodesics.qr_residual"][1] / counts["geodesics.qr_residual"] / 1e3, "us")
    for name in ("geodesics.lc_rhs_xy", "geodesics.lc_rhs_qr", "core.cost_ratio", "core.transform",
                 "hessian.hessian_ratio", "hessian.to_dense", "hessian.det_hessian_ratio",
                 "hessian.hessian_log", "connection.lc_christoffel_xy", "connection.ricci_xy",
                 "infogeo.fisher_info", "infogeo.symmetrized_is"):
        m[f"{name}.us"] = (us(name), "us")
    for suite, fn in verify.SUITES.items():
        m[f"verify.{suite}.s"] = (us(f"verify.{fn.__name__}") / 1e6, "s")
    m["cli.import_s"] = (measure_import(), "s")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.self_ms.{sub}"] = (self_ms(f"cli.main.{sub}"), "ms")

    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"trace-{workload}-seed{seed}.npz"),
                {"workload": workload, "seed": seed, "probe_from": probe_from,
                 "loop_from": loop_from, "loop_to": loop_to})
    traced = {"ops_per_s": r["units"] / r["busy"], "spans": loop_to}
    return r, m, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build the inputs, run one warm-up operation and exit")
    args = p.parse_args(argv)
    import_program()
    if args.setup_only:
        build_ops(args.workload, args.seed)[0].execute()
        return 0

    if args.trace:
        r, metrics, traced = per_layer(args.workload, args.seed, args.seconds)
        print(f"traced: {traced['ops_per_s']:.6g} ops/s, {traced['spans']} spans")
    else:
        r, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for msg, n in sorted(r["messages"].items()):
        print(f"failed x{n}: {msg}")
    print(f"{r['attempted']} operations in {r['rounds']} rounds, {r['failed']} failed, {r['wall']:.2f} s")
    print(json.dumps({
        "correct": r["wrong"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
