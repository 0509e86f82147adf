"""Benchmark this checkout against a base commit in alternating pairs.

    python3 tools/bench_pair.py --base REV --out BENCH_N.json

The base commit is exported with `git archive` into a temporary directory;
the change is this checkout as it stands.  Pair i runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

once on each side, for i = 1 … 10 and every workload, one process at a time,
and the side that goes first alternates from pair to pair.  A gain claim
needs ten pairs.  After the pairs, one traced run per side and workload
(`--trace 1`, seed 1) gives the per-layer figures in PER_LAYER.  The
workloads, the run length S and the end-to-end metrics with their bounds come
from BENCHMARK.json.  The output holds every run and, per workload and
metric, each side's median and quartiles, the pairs the change won, and
whether the change is better by the rule of at least nine wins in ten and a
median difference beyond the base's interquartile range.  Nothing under
perfbench/ is changed; each side's runs write their own perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PER_LAYER = ("ode.step.us", "ode.integrate.self_ms", "ode.rhs.us")
PAIRS = 10


def export(rev: str, dest: str) -> str:
    """The files of commit `rev`, written under dest; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = os.path.join(dest, "base.tar")
    subprocess.run(["git", "archive", "--output", archive, sha], cwd=ROOT, check=True)
    tree = os.path.join(dest, "base")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return sha


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process in checkout `root`; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base: list, change: list, better: str, bound: float) -> dict:
    """Per-pair wins and the gain and regression verdicts for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
    b, c = spread(base), spread(change)
    gain = sign * (c["median"] - b["median"])
    return {
        "base": b,
        "change": c,
        "change_wins": wins,
        "pairs": len(base),
        "median_ratio": c["median"] / b["median"] if b["median"] else None,
        "gain_shown": wins >= 0.9 * len(base) and gain > b["q3"] - b["q1"],
        "worse_beyond_bound": -gain > bound * abs(b["median"]),
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="commit to compare against")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    with tempfile.TemporaryDirectory() as tmp:
        sha = export(args.base, tmp)
        sides = {"base": os.path.join(tmp, "base"), "change": ROOT}
        runs = {w: {"base": [], "change": []} for w in workloads}
        for i in range(1, PAIRS + 1):
            order = ("base", "change") if i % 2 else ("change", "base")
            for w in workloads:
                for side in order:
                    runs[w][side].append(run(sides[side], w, i, seconds, 0))
                    print(f"pair {i} {w} {side}: {runs[w][side][-1]['metrics']['ops_per_s']['value']:.4g} ops/s",
                          file=sys.stderr, flush=True)
        traced = {w: {side: run(sides[side], w, 1, seconds, 1)["metrics"] for side in ("base", "change")}
                  for w in workloads}

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed i --seconds {seconds:g} --trace 0",
        "base": sha,
        "change": "working tree of the checkout holding this script",
        "pairs": PAIRS,
        "seeds": list(range(1, PAIRS + 1)),
        "order": "base first in odd pairs, change first in even pairs",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for w in workloads:
        entry = {}
        for side in ("base", "change"):
            entry[f"{side}_failed"] = [r["failed"] for r in runs[w][side]]
            entry[f"{side}_attempted"] = [r["attempted"] for r in runs[w][side]]
            entry[f"{side}_correct"] = all(r["correct"] for r in runs[w][side])
        entry["end_to_end"] = {
            name: dict(unit=m["unit"], better=m["better"], bound=m["bound"],
                       **compare([r["metrics"][name]["value"] for r in runs[w]["base"]],
                                 [r["metrics"][name]["value"] for r in runs[w]["change"]],
                                 m["better"], m["bound"]))
            for name, m in metrics.items()
        }
        entry["per_layer_traced_seed1"] = {
            name: {"unit": traced[w]["base"][name]["unit"],
                   "base": traced[w]["base"][name]["value"],
                   "change": traced[w]["change"][name]["value"]}
            for name in PER_LAYER
        }
        report["workloads"][w] = entry
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
