"""Command-line front end: scalar reports, trajectory/locus CSV emission,
and the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error,
3 a run that cannot start (InadmissibleInitialState) or ends on FAILED_ENDS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import __version__, connection, core, flows, geodesics, hessian, infogeo, verify
from .core import Chart, ChartPoint, WeightVector
from .tolerances import matrix_deviation
from .errors import InadmissibleInitialState, RecipGeoError
from .ode import TerminationReason

SEED_ENV = "RECIPGEO_SEED"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# The ends of a run that exit 3 with one error line; every other end (span
# complete, a singular set, a domain edge, convergence) exits 0.
FAILED_ENDS = frozenset({TerminationReason.BLOWUP, TerminationReason.STEP_UNDERFLOW, TerminationReason.MAX_STEPS})


class UsageError(Exception):
    pass


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _json_safe(v):
    """Map a value onto strict-JSON types. Non-finite floats (Ricci on the
    zero-cost line, an infinite blowup time) become None, i.e. null."""
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):  # before int: True is an int
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else None
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def _dumps(obj, indent: Optional[int] = None) -> str:
    """Strict JSON text: never the non-standard NaN or Infinity tokens."""
    return json.dumps(_json_safe(obj), indent=indent, sort_keys=True, allow_nan=False)


def _parse_floats(text: str, name: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse --{name} {text!r}: {exc}") from None
    if not vals:
        raise UsageError(f"--{name} must hold at least one number")
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"--{name} must hold finite numbers, got {text!r}")
    return np.array(vals)


def _parse_span(text: str) -> Tuple[float, float]:
    vals = _parse_floats(text, "span")
    if vals.size != 2:
        raise UsageError("--span needs exactly two comma-separated numbers")
    return float(vals[0]), float(vals[1])


def _weights(args) -> WeightVector:
    return WeightVector(_parse_floats(args.alpha, "alpha"))


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".recipgeo-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(table: Dict[str, Sequence]) -> str:
    """CSV text of a table (column name -> column), each column formatted
    once: a float array at 17 significant digits, an int array as integers,
    a list of Python values through _fmt."""
    cells = [map("{:.17g}".format if c.dtype.kind == "f" else str, c.tolist())
             if isinstance(c, np.ndarray) else map(_fmt, c) for c in table.values()]
    return "\n".join([",".join(table)] + [",".join(row) for row in zip(*cells)]) + "\n"


def _json_cells(column) -> list:
    """The JSON text of each cell of a column as it appears in a row of
    `_dumps(doc, indent=2)`: a float array through float.__repr__ (as json
    writes floats) with non-finite values as null, an integer array through
    str, any other column cell by cell through _dumps."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        cells = list(map(float.__repr__, column.tolist()))
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            cells[i] = "null"
        return cells
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return [_dumps(v, indent=2).replace("\n", "\n      ") for v in column]


def _json_rows(table: Dict[str, Sequence]) -> str:
    """The rows of a table as JSON text, byte for byte what _dumps writes at
    indent=2 for the list of its rows inside a document."""
    rows = ["[\n      " + ",\n      ".join(row) + "\n    ]" for row in zip(*map(_json_cells, table.values()))]
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def _emit(args, table: Dict[str, Sequence], meta: dict) -> None:
    """Write the table (column name -> numpy array or list of Python values)
    as CSV, meta to a JSON sidecar or stderr, or as one JSON document; with
    --residual-output, also its lambda and residual columns as CSV."""
    meta = {"version": __version__, **meta}
    if args.format == "json":
        # the keys sort as columns, meta, rows: the rows block closes the document
        head = _dumps({"meta": meta, "columns": list(table)}, indent=2)
        text = f'{head[:-2]},\n  "rows": {_json_rows(table)}\n}}\n'
    else:
        text = _csv(table)
    if args.output:
        _atomic_write(args.output, text)
        if args.format == "csv":
            _atomic_write(args.output + ".meta.json", _dumps(meta, indent=2) + "\n")
    else:
        sys.stdout.write(text)
        if args.format == "csv":
            sys.stderr.write(_dumps(meta) + "\n")
    if getattr(args, "residual_output", None):
        _atomic_write(args.residual_output, _csv({k: table[k] for k in ("lambda", "residual")}))


def _report(report: Dict[str, object]) -> Dict[str, list]:
    """A quantity,value table with one row per entry of `report`."""
    return {"quantity": list(report), "value": list(report.values())}


def _meta(w: WeightVector, traj: Optional[geodesics.Trajectory] = None, **fields) -> dict:
    """The weights, then for a run why it stopped and what its integration
    cost (every value deterministic; h_min/h_max are NaN, i.e. null, where
    nothing was integrated), then `fields`."""
    meta = {"alpha": list(map(float, w.alpha)), **fields}
    if traj is not None:
        meta.update(termination=traj.termination.value, accepted=traj.accepted, rejected=traj.rejected,
                    nfev=traj.nfev, h_min=traj.h_min, h_max=traj.h_max, lam_end=float(traj.lambdas[-1]))
    return meta


def _run_error(traj: geodesics.Trajectory, param: str, blowup: Optional[str] = None) -> Optional[str]:
    """The error line of a run that ends on one of FAILED_ENDS, else None:
    `blowup` for a blowup where the subcommand words it, else the end and the
    parameter at which the run stopped."""
    end = traj.termination
    if end not in FAILED_ENDS:
        return None
    if end is TerminationReason.BLOWUP and blowup:
        return blowup
    return f"{end.value} at {param} = {_fmt(float(traj.lambdas[-1]))}, short of the span's end"


def _seed(args) -> int:
    """--seed, else $RECIPGEO_SEED, else 0; a negative seed is a usage error."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get(SEED_ENV, "0")
        try:
            seed, source = int(env), SEED_ENV
        except ValueError:
            raise UsageError(f"{SEED_ENV}={env!r} is not an integer") from None
    if seed < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


# -- subcommands -------------------------------------------------------------

# a subcommand's table, meta and error line (see _run_error) or None; not verify's
Result = Tuple[Dict[str, Sequence], dict, Optional[str]]


def cmd_eval(args) -> Result:
    w = _weights(args)
    chart = Chart(args.chart)
    point = ChartPoint(chart, _parse_floats(args.point, "point"))
    summary = core.cost(point, w)
    table = {"J": [summary.J], "R": [summary.R], "S": [summary.S], "G": [summary.G]}
    return table, _meta(w, chart=chart.value), None


def cmd_hessian(args) -> Result:
    w = _weights(args)
    chart = Chart(args.chart)
    point = ChartPoint(chart, _parse_floats(args.point, "point"))
    if chart is Chart.LOG:
        m = hessian.hessian_log(point, w)
    else:
        m = hessian.hessian_ratio(point, w)
    dense = m.array
    report = {f"h[{i}][{j}]": dense[i, j] for i in range(len(dense)) for j in range(i, len(dense))}
    summary = core.cost(point, w)
    s_star = hessian.singular_S(w)
    report.update(rank=hessian.rank(m), det=hessian.det_direct(m), S=summary.S, J=summary.J,
                  sum_alpha=w.total, singular_S=s_star)
    if s_star is not None and s_star == 0.0:
        report["singular_S_coincides_with_zero_cost"] = True
    if chart is Chart.RATIO:
        d = hessian.decompose(point, w)
        report.update(det_lemma=hessian.det_hessian_ratio(point, w), beta=d.beta, a_scale=d.a_scale)
        for i, (ui, di) in enumerate(zip(d.u, d.diag)):
            report[f"u[{i}]"] = ui
            report[f"diag[{i}]"] = di
    try:
        report["locus_value"] = hessian.singular_locus_value(point, w)
    except RecipGeoError:
        report["locus_value"] = None
    return _report(report), _meta(w, chart=chart.value), None


def cmd_christoffel(args) -> Result:
    w = _weights(args)
    if w.n != 2:
        raise UsageError("christoffel tables exist for n = 2 only")
    coords = _parse_floats(args.point, "point")
    if coords.size != 2:
        raise UsageError("--point needs two coordinates")
    chart = Chart(args.chart)
    # Python floats: q or a component past the double range is inf, unwarned,
    # until the wall or the double-range check refuses it
    x, y = map(float, coords)
    if chart is Chart.RATIO:
        gamma = connection.lc_christoffel_xy(w.a, w.b, x, y)
        Z = connection.z_xy(w.a, w.b, x, y)
        names = "xy"
        report = {"Z": Z, "Delta": connection.delta(w.a, w.b, Z)}
    else:
        gamma = connection.lc_christoffel_st(w.a, w.b, x, y)
        names = "st"
        report = {"q": core.log_to_qr(coords, w.a, w.b)[0]}
    for k, i, j in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)):
        report[f"G^{names[k]}_{names[i]}{names[j]}"] = gamma.array[k, i, j]
    return _report(report), _meta(w, chart=chart.value), None


def cmd_ricci(args) -> Result:
    w = _weights(args)
    if w.n != 2:
        raise UsageError("the Ricci scalar is computed for n = 2")
    if (args.Z is None) == (args.q is None):
        raise UsageError("give exactly one of --Z or --q")
    if args.Z is not None:
        report = {"Z": args.Z, "ricci": connection.ricci_xy(w.a, w.b, args.Z)}
    else:
        report = {"q": args.q, "ricci": connection.ricci_q(w.a, w.b, args.q)}
    return _report(report), _meta(w), None


def _geodesic_table(traj: geodesics.Trajectory, w: WeightVector) -> Dict[str, np.ndarray]:
    """Columns lambda,x,y,xdot,ydot,q,r,J,Delta,residual of a 2D trajectory."""
    a, b = w.a, w.b
    residuals = geodesics.qr_residual(traj, a, b)
    if traj.chart is Chart.RATIO:
        xy, vxy = traj.positions, traj.velocities
        qr = core.log_to_qr(np.log(xy), a, b)
    else:
        qr = traj.positions
        xy = np.exp(core.qr_to_log(qr, a, b))
        vxy = core.qr_to_log(traj.velocities, a, b) * xy  # chain rule back to the ratio chart
    delta = connection.delta(a, b, connection.z_xy(a, b, xy[:, 0], xy[:, 1]))
    J = core.cost_ratio_rows(xy, w)
    return {"lambda": traj.lambdas, "x": xy[:, 0], "y": xy[:, 1], "xdot": vxy[:, 0], "ydot": vxy[:, 1],
            "q": qr[:, 0], "r": qr[:, 1], "J": J, "Delta": delta, "residual": residuals}


def cmd_geodesic(args) -> Result:
    w = _weights(args)
    span = _parse_span(args.span)
    state = _parse_floats(args.state, "state")
    if args.residual_output and args.type != "lc":
        raise UsageError("--residual-output applies to --type lc only")
    if args.type == "lc":
        if w.n != 2:
            raise UsageError("Levi-Civita geodesics are implemented for n = 2")
        if state.size != 4:
            raise UsageError("--state needs x,y,xdot,ydot (4 values)")
        chart = Chart.RATIO if args.chart == "ratio" else Chart.QR
        st0 = geodesics.GeodesicState(chart, state[:2], state[2:], span[0])
        traj = geodesics.integrate_geodesic(st0, w.a, w.b, span, tol=args.tol, samples=args.samples)
        table = _geodesic_table(traj, w)
    else:
        if state.size != 2 * w.n:
            raise UsageError(f"--state needs {2 * w.n} values (position then velocity)")
        structure = connection.AffineStructure(args.structure)
        chart0 = Chart.RATIO
        start = ChartPoint(chart0, state[: w.n])
        traj = geodesics.affine_trajectory(structure, start, state[w.n:], w, span, num=args.samples)
        table = {"lambda": traj.lambdas,
                 **{f"x{i+1}": traj.positions[:, i] for i in range(w.n)},
                 **{f"v{i+1}": traj.velocities[:, i] for i in range(w.n)},
                 "J": core.cost_ratio_rows(traj.positions, w)}
    meta = _meta(w, traj, tol=args.tol, span=list(span), type=args.type)
    return table, meta, _run_error(traj, "lambda")


def cmd_flow(args) -> Result:
    w = _weights(args)
    t0 = _parse_floats(args.point, "point")
    if t0.size != w.n:
        raise UsageError("--point dimension must match --alpha")
    span = _parse_span(args.span)
    sign = flows.FlowSign.ASCENT if args.sign == "ascent" else flows.FlowSign.DESCENT
    S0 = core.alpha_dot(t0, w.alpha)
    C = flows.flow_constant(S0)
    traj = flows.integrate_flow(t0, w, sign, span, tol=args.tol, samples=args.samples)
    S = core.alpha_dot(traj.positions, w.alpha)
    r = flows.radical_projections(traj.positions, w)
    table = {
        "tau": traj.lambdas,
        "S": S,
        "S_closed": flows.closed_form_S(S0, traj.lambdas - span[0], w, sign),
        "J": core.cost_from_S(S),
        **{f"t{i+1}": traj.positions[:, i] for i in range(w.n)},
        **{f"r{k+1}": r[:, k] for k in range(w.n - 1)},
    }
    tau_star = span[0] + flows.blowup_time(S0, w)
    meta = _meta(w, traj, sign=args.sign, C=C, tau_star=tau_star, tol=args.tol)
    return table, meta, _run_error(traj, "tau", blowup=f"ascent blowup inside span at tau* = {_fmt(tau_star)}")


def cmd_locus(args) -> Result:
    w = _weights(args)
    if w.n != 2:
        raise UsageError("locus emission is 2D")
    a, b = w.a, w.b
    lo, hi = _parse_span(args.range)
    n = args.grid
    if n < 2:
        raise UsageError("--grid must be at least 2")
    # every x = e^s and Z = e^{2S} of the grid must lie within the exp wall
    reach = max(abs(lo), abs(hi), *(2.0 * abs(a * s + b * t) for s in (lo, hi) for t in (lo, hi)))
    if reach > core.S_MAX:
        raise UsageError(f"--range {lo:g},{hi:g} takes |log x| or 2|S| to {reach:g}, past S_MAX = {core.S_MAX:g}")
    logs = np.linspace(lo, hi, n)
    xs = np.exp(logs)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    # a grid is matched against no point call, so numpy's exp and log do
    Z = connection.z_xy(a, b, X, Y, xp=np)
    F_zero, F_sing, F_ricci = connection.z_factors(a, b, Z)
    ricci = connection.ricci_xy(a, b, Z)

    def adjacency(F: np.ndarray) -> np.ndarray:
        flag = np.zeros_like(F, dtype=bool)
        sign_x = np.signbit(F[:-1, :]) != np.signbit(F[1:, :])
        sign_y = np.signbit(F[:, :-1]) != np.signbit(F[:, 1:])
        flag[:-1, :] |= sign_x
        flag[1:, :] |= sign_x
        flag[:, :-1] |= sign_y
        flag[:, 1:] |= sign_y
        return flag

    flags = (
        adjacency(F_zero).astype(int)
        + 2 * adjacency(F_sing).astype(int)
        + 4 * adjacency(F_ricci).astype(int)
    )
    table = {"x": X.ravel(), "y": Y.ravel(), "Z": Z.ravel(), "Delta": connection.delta(a, b, Z).ravel(),
             "Ricci": ricci.ravel(), "flags": flags.ravel()}
    return table, _meta(w, grid=n, range=[lo, hi]), None


def cmd_verify(args) -> int:
    seed = _seed(args)
    results = verify.run_all(seed=seed, perturb=args.perturb, only=args.suite)
    if not results:
        raise UsageError(f"unknown suite {args.suite!r}")
    report = verify.format_report(results, seed)
    if args.output:
        _atomic_write(args.output, report)
    else:
        sys.stdout.write(report)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def cmd_fisher(args) -> Result:
    w = _weights(args)
    t = ChartPoint(Chart.LOG, _parse_floats(args.point, "point"))
    info = infogeo.fisher_info(t, w)
    S = core.S_at(t, w)
    dense = info.array
    report = {f"I[{i}][{j}]": dense[i, j] for i in range(len(dense)) for j in range(i, len(dense))}
    report.update(S=S, m=infogeo.mean_function(S), m_prime=infogeo.mean_slope(S),
                  hessian_dev=matrix_deviation(dense, hessian.hessian_log(t, w).array))
    return _report(report), _meta(w), None


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # the option groups that subcommands share through parents=
    alpha, at, run, out = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    alpha.add_argument("--alpha", required=True)
    at.add_argument("--chart", choices=("ratio", "log"), default="ratio")
    at.add_argument("--point", required=True)
    run.add_argument("--span", required=True)
    run.add_argument("--tol", type=float, default=1e-10)
    run.add_argument("--samples", type=int, default=geodesics.DENSE_SAMPLES)
    out.add_argument("--format", choices=("csv", "json"), default="csv")
    out.add_argument("--output", default=None, help="write to this path (atomic); default stdout")

    parser = argparse.ArgumentParser(
        prog="recipgeo",
        description="Differential geometry of the reciprocal cost function",
    )
    parser.add_argument("--version", action="version", version=f"recipgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, summary, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(fn=fn)
        return p

    add("eval", cmd_eval, "evaluate the cost at a point", alpha, at, out)
    add("hessian", cmd_hessian, "Hessian report at a point", alpha, at, out)
    add("christoffel", cmd_christoffel, "closed-form connection components", alpha, at, out)

    p = add("ricci", cmd_ricci, "Ricci scalar in Z or q", alpha, out)
    p.add_argument("--Z", type=float, default=None)
    p.add_argument("--q", type=float, default=None)

    p = add("geodesic", cmd_geodesic, "integrate a geodesic and emit CSV", alpha, run, out)
    p.add_argument("--type", choices=("lc", "affine"), default="lc")
    p.add_argument("--chart", choices=("ratio", "qr"), default="ratio",
                   help="integration chart for Levi-Civita geodesics")
    p.add_argument("--structure", choices=("log", "ratio"), default="log",
                   help="flat structure for affine geodesics")
    p.add_argument("--state", required=True, help="position then velocity, comma-separated")
    p.add_argument("--residual-output", default=None)

    p = add("flow", cmd_flow, "integrate a gradient flow and emit CSV", alpha, run, out)
    p.add_argument("--point", required=True, help="log-chart starting point")
    p.add_argument("--sign", choices=("ascent", "descent"), default="descent")

    p = add("locus", cmd_locus, "sample the degeneracy/curvature loci on a grid", alpha, out)
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--range", default="-3,3", help="log-coordinate range lo,hi")

    p = add("verify", cmd_verify, "run the verification suites")
    p.add_argument("--suite", default=None, help="run a single suite by name")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="test hook: scale one Christoffel component by 1+perturb")
    p.add_argument("--seed", type=int, default=None,
                   help=f"random seed (falls back to ${SEED_ENV}, then 0)")
    p.add_argument("--output", default=None, help="write the report to this path (atomic); default stdout")

    p = add("fisher", cmd_fisher, "Fisher information report at a log point", alpha, out)
    p.add_argument("--point", required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; every exit code but verify's is decided here."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():  # --tol, --Z, --q, --perturb
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"--{name} must be finite, got {value}")
        if getattr(args, "tol", 1.0) <= 0.0:
            raise UsageError(f"--tol must be positive, got {args.tol}")
        if args.fn is cmd_verify:
            return cmd_verify(args)
        table, meta, error = args.fn(args)
        _emit(args, table, meta)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except RecipGeoError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME if isinstance(exc, InadmissibleInitialState) else EXIT_USAGE
    if error is None:
        return EXIT_OK
    sys.stderr.write(f"error: {error}\n")
    return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
