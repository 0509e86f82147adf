"""Compare the outputs of a fixed list of recipgeo commands between a base
commit and this checkout.

    python3 tools/output_digest.py --base REV

The base commit is exported with `bench_pair.export`; the change is this
checkout as it stands.  Each command runs once per side, one process at a
time, as `python -m recipgeo.cli ARGS` with that side's src/ on PYTHONPATH,
in a new empty working directory, so that every file it writes (`--output`,
its `.meta.json` sidecar, `--residual-output`) lands there.  One line per
command says whether the exit code, stdout, stderr and every written file are
byte-identical, and, where they are not, which of them differ and in how many
lines.  Exits 1 if any command differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

from bench_pair import ROOT, export

COMMANDS = [
    # verify reports
    "verify --seed 0",
    "verify --seed 123",
    "verify --suite christoffel_oracle --perturb 0.01",
    # the README examples
    "eval --alpha 0.5,0.5 --chart ratio --point 1,1",
    "hessian --chart ratio --point 2,1 --alpha 1,1",
    "christoffel --alpha 0.333333,0.5 --point 2,1.5",
    "ricci --alpha 0.5,0.5 --Z 4",
    "geodesic --alpha 0.3333333333333333,0.5 --state 4,2,-1,1 --span 0,8"
    " --output traj.csv --residual-output residual.csv",
    "geodesic --alpha 1,1 --type affine --structure ratio --state 1,1,-1,0 --span 0,5 --output affine.csv",
    "flow --alpha 0.5,0.5 --point 1.2,0.8 --sign descent --span 0,30 --output flow.csv",
    "locus --alpha 0.3333333333333333,0.5 --grid 201 --output locus.csv",
    "fisher --alpha 0.5,0.5 --point 0.4,0.1",
    "verify --seed 7",
    # flows, CSV and JSON, with sidecars
    "flow --alpha 0.5,0.5 --point 1.2,0.8 --sign ascent --span 0,5 --output flow.csv",
    "flow --alpha 0.5,0.5 --point 1.2,0.8 --sign ascent --span 0,5 --format json --output flow.json",
    "flow --alpha 0.5,0.5 --point 1.2,0.8 --sign descent --span 0,5 --output flow.csv",
    "flow --alpha 0.5,0.5 --point 1.2,0.8 --sign descent --span 0,5 --format json --output flow.json",
    "flow --alpha=0.6,-0.3,0.9 --point=0.5,1,-0.2 --sign descent --span 0,5 --output flow.csv",
    "flow --alpha 0.7 --point 1.5 --sign descent --span 0,5",
    "flow --alpha 0.5,0.5 --point 1.2,0.8 --sign ascent --span 1,3 --samples 4",
    # a descent that starts converged: stopped at its initial state
    "flow --alpha 0.5,-0.5 --point 2,2 --span 0,4 --format json",
    # positions rebuilt from S at higher n: a descent at n = 8, an ascent at n = 5
    "flow --alpha=0.5,-0.3,0.8,0.2,-0.6,0.4,0.7,-0.1 --point=0.3,1.1,-0.4,0.9,0.2,-1.3,0.6,0.5"
    " --sign descent --span 0,10 --output flow.csv",
    "flow --alpha=0.4,-0.7,0.9,0.3,-0.5 --point=1,0.5,0.8,-0.6,-0.2 --sign ascent --span 0,5 --format json",
    # geodesics: Levi-Civita in both charts, affine in both structures
    "geodesic --alpha 0.3333333333333333,0.5 --chart ratio --state 4,2,-1,1 --span 0,8"
    " --residual-output residual.csv",
    "geodesic --alpha 0.3333333333333333,0.5 --chart qr --state=1.2,0.3,-0.2,0.5 --span 0,3"
    " --format json --output traj.json --residual-output residual.csv",
    "geodesic --alpha=0.8,-0.8 --chart ratio --state=2,1,0.7071067811865476,0.7071067811865476 --span 0,4"
    " --residual-output residual.csv",
    # the same geodesic as the line above, started in the qr chart
    "geodesic --alpha=0.8,-0.8 --chart qr"
    " --state=0.5545177444479562,0.5545177444479562,-0.28284271247461906,0.8485281374238571 --span 0,4"
    " --residual-output residual.csv",
    # a + b > 1, where L = 2 |alpha|^4 ((a+b) cosh q - sinh q) never vanishes, in both charts
    "geodesic --alpha 0.9,0.7 --chart ratio --state 2,1.5,-0.5,0.8 --span 0,3 --residual-output residual.csv",
    "geodesic --alpha 0.9,0.7 --chart qr"
    " --state=0.9076580381796657,-0.12028442909461373,0.1483333333333333,0.655 --span 0,3"
    " --format json --output traj.json --residual-output residual.csv",
    "geodesic --alpha 0.5,0.5 --type affine --structure log --state 1,2,0.5,-0.5 --span 0,3",
    "geodesic --alpha 1,1 --type affine --structure ratio --state 1,1,-1,0 --span 0,5 --format json",
    # loci
    "locus --alpha 0.3333333333333333,0.5 --grid 41",
    "locus --alpha 0.3333333333333333,0.5 --grid 41 --format json",
    "locus --alpha 0.3333333333333333,0.5 --grid 201",
    "locus --alpha 0.3333333333333333,0.5 --grid 201 --format json",
    # the scalar reports
    "eval --alpha 0.5,-0.8,1.1 --chart log --point 0.7,-1.2,0.4 --format json",
    "hessian --alpha 0.5,-0.8,1.1 --chart log --point 0.7,-1.2,0.4",
    "hessian --alpha 0.5,0.5 --chart ratio --point 2,0.5 --format json",
    "christoffel --alpha 0.333333,0.5 --chart log --point 0.4,-0.3",
    "ricci --alpha 0.3,0.4 --q 0.8 --format json",
    "fisher --alpha 0.5,-0.8,1.1 --point 0.7,-1.2,0.4 --format json",
    # the cost next to the zero-cost leaf, where cosh S - 1 cancels
    "eval --alpha 1 --chart log --point 1e-8 --format json",
    # an n = 3 ratio-chart Hessian with its determinant and determinant lemma
    "hessian --alpha 0.3,0.9,-0.4 --chart ratio --point 1.5,0.7,2 --format json",
    # past the overflow wall S_MAX: exit 2 with a typed error, no traceback
    "hessian --chart log --alpha 1 --point 800",
    "eval --chart log --alpha 1 --point 800",
    "hessian --chart ratio --alpha 1,1 --point 1e300,1e300",
    "ricci --alpha 1,1 --q 800",
    "christoffel --alpha 1,1 --chart log --point 400,400",
    "flow --alpha 1 --point 800 --span 0,1",
    "flow --alpha 1e200,1e200 --point 1,1 --span 0,1",
    "locus --alpha 1,1 --grid 3 --range 800,900",
    # the closed forms in Z = e^(2q) and sinh 2q, walled at 2|q| <= S_MAX
    "christoffel --chart log --alpha 1,1 --point 200,200",
    "christoffel --alpha 1,1 --point 1e100,1e100",
    "ricci --alpha 1,1 --Z 1e300",
    # q inside the wall: x^2 past the coordinate wall 2|log x| <= S_MAX, and
    # y / x^2 past the double range inside it
    "christoffel --alpha 1,1.001 --point 1e-200,1e200",
    "christoffel --alpha 1,1.001 --point 1.5e-152,6.6e151",
    # S = 0 inside its wall, the ratio-chart Hessian's x_i^2 past the coordinate wall
    "hessian --chart ratio --alpha 1,-1 --point 1e-200,1e-200",
    # the closed-form m next to its slope m', in the middle and at the wall
    "fisher --alpha 1 --point 30",
    "fisher --alpha 1 --point 699.5",
    # inside both walls (S = 661.1, 2|log x_i| = 695.9), R / x_2^2 past the double range
    "hessian --chart ratio --alpha 2,0.1 --point 1.3e151,7.6e-152",
    # the ratio-chart Hessian, its split and determinant lemma at n = 8, the Fisher information at n = 5
    "hessian --chart ratio --alpha=0.5,-0.3,0.8,0.2,-0.6,0.4,0.7,-0.1"
    " --point=1.3,0.4,2.2,0.9,1.7,0.6,1.1,3.0 --format json",
    "fisher --alpha=0.4,-0.7,0.9,0.3,-0.5 --point=1,0.5,0.8,-0.6,-0.2",
    # inside the walls, past the double range: core's double-range check
    # refuses the log-chart Hessian and the Fisher information at S = 260,
    # the direct determinant and the lemma at a subnormal weight, and a
    # Christoffel symbol at q = 275.5; the Ricci scalar with (a + b)^2 past it
    "hessian --chart log --alpha 1e100,1e100 --point 1.3e-98,1.3e-98",
    "fisher --alpha 1e100,1e100 --point 1.3e-98,1.3e-98",
    "hessian --chart ratio --alpha 1e-310,1 --point 1e10,2",
    "christoffel --chart log --alpha=-1.2819326382081938e+152,7.691090675299943e+22"
    " --point=-2.149311366132404e-150,-5.0785004443045275e-151",
    "ricci --alpha 9.4e153,9.4e153 --q 0.5",
    # q = a s + b t itself past the double range
    "christoffel --chart log --alpha 1e150,1 --point 1e200,1",
    # S = alpha . t itself past the double range: one error line, no warning
    "eval --chart log --alpha 1e150,1 --point 1e200,1",
    "hessian --chart log --alpha 1e150,1 --point 1e200,1",
    "fisher --alpha 1e150,1 --point 1e200,1",
    "flow --alpha 1e150,1 --point 1e200,1 --span 0,1",
    # affine runs whose domain edge lies within 1e-9 of the span from lambda = 0
    "geodesic --type affine --structure log --alpha 1,1 --state 1,1,1e12,0 --span 0,1 --samples 3",
    "geodesic --type affine --structure ratio --alpha 1,1 --state 1,1,-1e10,0 --span 0,1 --samples 3",
    # a ratio-flat run that ends where x_1 reaches e^S_MAX
    "geodesic --type affine --structure ratio --alpha 1,1 --state 1,1,1e300,0 --span 0,1e10 --samples 3",
    # subnormal Hessian entries: the direct determinant -0, unwarned
    "hessian --chart ratio --alpha=-3.2477906522764906e-122,-2.1672478321195007e-68"
    " --point=5.643185458960553e+44,1.4213928485581296e+86",
]


def run(root: str, argv: list) -> dict:
    """One command in a fresh directory: exit code, stdout, stderr and the
    bytes of every file it wrote, by name."""
    env = {k: v for k, v in os.environ.items() if k != "RECIPGEO_SEED"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "recipgeo.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=600)
        out = {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name), "rb") as fh:
                out[name] = fh.read()
    return out


def differing_lines(a, b) -> str:
    if not isinstance(a, bytes) or not isinstance(b, bytes):
        return f"{a!r} against {b!r}"
    la, lb = a.splitlines(), b.splitlines()
    changed = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
    return f"{changed} of {max(len(la), len(lb))} lines"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="commit to compare against")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sha = export(args.base, tmp)
        print(f"base {sha}, change: the working tree of {ROOT}")
        same = 0
        for cmd in COMMANDS:
            base, change = (run(root, cmd.split()) for root in (os.path.join(tmp, "base"), ROOT))
            diffs = [f"{key} ({differing_lines(base.get(key), change.get(key))})"
                     for key in sorted(set(base) | set(change), key=str) if base.get(key) != change.get(key)]
            same += not diffs
            print(f"{'identical' if not diffs else 'DIFFERS':<10} {cmd}" + (f": {', '.join(diffs)}" if diffs else ""),
                  flush=True)
    print(f"{same} of {len(COMMANDS)} commands byte-identical")
    return 0 if same == len(COMMANDS) else 1


if __name__ == "__main__":
    sys.exit(main())
