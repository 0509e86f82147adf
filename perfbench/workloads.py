"""The four workloads: seeded inputs, the program calls each operation makes,
and the independent checks on their outputs.

An operation is split into `execute` (calls into recipgeo, timed) and
`check` (compares the outputs with `reference`, untimed), so that the
self-test can corrupt an output between the two.  `check` returns two lists:
`failed`, where the program did not deliver (it raised, exited with an
unexpected code, or reported a wrong termination), and `wrong`, where it
delivered values that fail a check.  Either makes the operation count as
failed; only `wrong` makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

import reference as ref

# Imported by run.py from the checkout's src/ before this module loads.  Only
# module attributes are called (flows.integrate_flow, never a bare name), so
# the traced run can wrap them at run time.
from recipgeo import cli, connection, core, flows, geodesics, hessian, infogeo
from recipgeo.core import Chart, ChartPoint, WeightVector

FLOW_TOL = 1e-10
SAMPLES = 512
S_TOL = 1e-8
DRIFT_TOL = 1e-10
BLOWUP_REL_TOL = 1e-3
RESIDUAL_TOL = 1e-8
ENERGY_TOL = 3e-8     # 8x the largest g(v, v) drift seen over 40 seeds (3.7e-9)
LAMBDA_TOL = 1e-8
FAR_FROM_GUARD = 1e-3   # |Delta| above which residual and g(v, v) are checked
MATRIX_TOL = 1e-12
DET_TOL = 1e-9
COMPAT_TOL = 1e-6
RICCI_TOL = 1e-9
RHS_TOL = 1e-9
LOCUS_GRID = 201


@dataclass
class Outcome:
    """Timings of one executed operation and its outputs."""

    times: List[float]      # latency samples, seconds
    busy: float             # time spent inside recipgeo, seconds
    units: int              # throughput units completed
    out: dict = field(default_factory=dict)
    error: str = ""         # set when the program raised


@dataclass
class Op:
    execute: Callable[[], Outcome]
    check: Callable[[Outcome], tuple]   # -> (failed, wrong) message lists
    label: str = ""
    inputs: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def _guarded(execute):
    """Record an exception from the program as the operation's error."""
    def run():
        try:
            return execute()
        except Exception as exc:  # boundary: the loop must go on and count it
            return Outcome([], 0.0, 0, error=f"{type(exc).__name__}: {exc}")
    return run


def _weights(rng, n, n2):
    """Random signs and magnitudes, rescaled to |alpha|^2 = n2."""
    alpha = rng.uniform(0.2, 1.5, n) * np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    return alpha * math.sqrt(n2 / float(alpha @ alpha))


# -- flow_batch ----------------------------------------------------------------

def flow_op(alpha, t0, sign: flows.FlowSign, span) -> Op:
    w = WeightVector(alpha)

    @_guarded
    def execute():
        traj, dt = _timed(flows.integrate_flow, t0, w, sign, span, tol=FLOW_TOL, samples=SAMPLES)
        return Outcome([dt], dt, 1, out={
            "lam": traj.lambdas, "pos": traj.positions, "termination": traj.termination.value})

    def check(o: Outcome):
        if o.error:
            return [o.error], []
        n2 = float(alpha @ alpha)
        S0 = float(alpha @ t0)
        expected = ("blowup",) if sign is flows.FlowSign.ASCENT else ("span_complete", "converged")
        failed = [] if o.out["termination"] in expected else [f"termination {o.out['termination']}"]
        wrong = []
        lam, pos = o.out["lam"], o.out["pos"]
        S = pos @ alpha
        S_ref, inside = ref.flow_S(S0, n2, sign.value, lam)
        # An error equal to a relative shift of 1e-8 in tau is allowed: near the
        # ascent horizon S is ill-conditioned in tau.
        scale = np.maximum.reduce([np.ones(inside.sum()), np.abs(S_ref[inside]),
                                   lam[inside] * n2 * np.abs(np.sinh(S_ref[inside]))])
        dev = float(np.max(np.abs(S[inside] - S_ref[inside]) / scale, initial=0.0))
        if dev > S_TOL:
            wrong.append(f"S deviates from the closed form by {dev:.3e}")
        if sign is flows.FlowSign.ASCENT:
            tau_star = ref.blowup_time(S0, n2)
            if np.any(lam[~inside] < tau_star * (1.0 - BLOWUP_REL_TOL)):
                wrong.append("samples beyond the closed form's domain before tau*")
            rel = abs(lam[-1] - tau_star) / tau_star
            if rel > BLOWUP_REL_TOL:
                wrong.append(f"ascent halted {rel:.3e} (relative) away from tau*")
        elif not np.all(inside):
            wrong.append("descent sample outside the closed form's domain")
        basis = ref.radical_basis(alpha)
        drift = float(np.max(np.abs(pos @ basis.T - basis @ t0)))
        if drift > DRIFT_TOL:
            wrong.append(f"radical projections drift by {drift:.3e}")
        return failed, wrong

    return Op(execute, check, f"flow n={alpha.size} {sign.name.lower()}", {"alpha": alpha})


def flow_batch(seed: int) -> List[Op]:
    """32 flows per round: 6 descent and 2 ascent runs for each n.  An ascent
    run costs about twice a descent run; with three descents to one ascent
    the median lies inside the descent runs and the 90th percentile inside
    the ascent runs, not on the edge between the two."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for n in (2, 3, 5, 8):
        for sign, count in ((flows.FlowSign.DESCENT, 6), (flows.FlowSign.ASCENT, 2)):
            for _ in range(count):
                n2 = rng.uniform(0.3, 1.5)
                alpha = _weights(rng, n, n2)
                S0 = rng.uniform(0.3, 3.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
                t0 = rng.uniform(-2.0, 2.0, n)
                t0 = t0 + (S0 - float(alpha @ t0)) * alpha / n2
                if sign is flows.FlowSign.ASCENT:
                    span = (0.0, 1.5 * ref.blowup_time(float(alpha @ t0), n2))
                else:
                    span = (0.0, rng.uniform(5.0, 30.0) / n2)
                ops.append(flow_op(alpha, t0, sign, span))
    return ops


# -- geodesic_fan --------------------------------------------------------------

def geodesic_op(a, b, x0, v0, span) -> Op:
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    q0, qd0 = ref.ratio_to_qr(a, b, x0, v0)

    @_guarded
    def execute():
        st = geodesics.GeodesicState(Chart.RATIO, x0, v0, span[0])
        tr, t1 = _timed(geodesics.integrate_geodesic, st, a, b, span)
        sq = geodesics.GeodesicState(Chart.QR, q0, qd0, span[0])
        tq, t2 = _timed(geodesics.integrate_geodesic, sq, a, b, span)
        res, t3 = _timed(geodesics.qr_residual, tr, a, b)
        out = {"residual": res}
        for key, traj in (("ratio", tr), ("qr", tq)):
            out[key] = {"lam": traj.lambdas, "pos": traj.positions, "vel": traj.velocities,
                        "termination": traj.termination.value}
        return Outcome([t1, t2], t1 + t2 + t3, 2, out=out)

    def check(o: Outcome):
        if o.error:
            return [o.error], []
        r, q = o.out["ratio"], o.out["qr"]
        failed = []
        if r["termination"] != q["termination"]:
            failed.append(f"charts disagree: ratio {r['termination']}, qr {q['termination']}")
        if abs(r["lam"][-1] - q["lam"][-1]) > LAMBDA_TOL * max(1.0, abs(q["lam"][-1])):
            failed.append(f"charts end at lambda {float(r['lam'][-1])!r} and {float(q['lam'][-1])!r}")
        wrong = []
        _, delta = ref.delta_xy(a, b, r["pos"][:, 0], r["pos"][:, 1])
        far = np.abs(delta) > FAR_FROM_GUARD
        worst = float(np.max(o.out["residual"][far], initial=0.0))
        if not worst <= RESIDUAL_TOL:
            wrong.append(f"qr residual {worst:.3e} where |Delta| > {FAR_FROM_GUARD:g}")
        qx, qv = ref.qr_to_ratio(a, b, q["pos"], q["vel"])
        for chart, pos, vel in (("ratio", r["pos"], r["vel"]), ("qr", qx, qv)):
            _, d = ref.delta_xy(a, b, pos[:, 0], pos[:, 1])
            E = ref.energy(a, b, pos, vel)
            drift = float(np.max(np.abs(E[np.abs(d) > FAR_FROM_GUARD] - E[0]), initial=0.0))
            drift /= max(1.0, abs(E[0]))
            if not drift <= ENERGY_TOL:
                wrong.append(f"g(v, v) drifts by {drift:.3e} in the {chart} chart")
        return failed, wrong

    return Op(execute, check, f"geodesic a={a:.3f} b={b:.3f} v={v0}", {"a": a, "b": b})


def fixed_fan() -> List[Op]:
    """Every fourth of the 40 unit directions from (4, 2), alpha = (1/3, 1/2),
    span [0, 8].  The same for every seed: 8 of these 10 ratio-chart runs end
    on R = 1 by step underflow and are counted as failed (see README); one
    ends at the span, and one on R = 1 correctly classified."""
    ops = []
    for k in range(0, 40, 4):
        th = 2.0 * math.pi * k / 40
        ops.append(geodesic_op(1.0 / 3.0, 0.5, (4.0, 2.0), (math.cos(th), math.sin(th)), (0.0, 8.0)))
    return ops


def seeded_fan_data(rng) -> list:
    """(a, b, x0, v0, span) of two fans of six directions for each weight
    class (a+b < 1, a+b > 1, a = -b).  Each base point lies beyond the
    singular levels of q = a s + b t, and a fan is redrawn until, by
    `reference.moves_away`, every direction moves q away from them for good,
    so the runs end at the span: runs that end on a singular set fail on some
    seeds and not others (see CHANGES.md), which a seeded input set cannot
    keep."""
    data = []
    for cls in ("a+b<1", "a+b>1", "a=-b"):
        for _ in range(2):
            if cls == "a+b<1":
                a, b = rng.uniform(0.15, 0.45, 2)
            elif cls == "a+b>1":
                a, b = rng.uniform(0.6, 1.2, 2)
            else:
                a = rng.uniform(0.3, 1.5)
                b = -a
            levels = [0.0] + ([math.atanh(a + b)] if abs(a + b) < 1.0 else [])
            n2 = a * a + b * b
            while True:
                up = rng.uniform() < 0.5
                q0 = max(levels) + rng.uniform(0.75, 2.0) if up else min(levels) - rng.uniform(0.75, 2.0)
                r0 = rng.uniform(-1.0, 1.0)
                speed = rng.uniform(0.2, 0.6)
                toward = math.atan2(b, a) if up else math.atan2(-b, -a)
                offset = rng.uniform(-0.3, 0.3)
                ths = [toward + offset + (k - 2.5) * 0.4 for k in range(6)]
                # log-chart velocity w maps to (q', r') = (a w1 + b w2, -b w1 + a w2)
                if all(ref.moves_away(a, b, q0, speed * (a * math.cos(th) + b * math.sin(th)),
                                      speed * (-b * math.cos(th) + a * math.sin(th))) for th in ths):
                    break
            x0 = np.exp([(a * q0 - b * r0) / n2, (b * q0 + a * r0) / n2])
            for th in ths:
                v0 = speed * x0 * np.array([math.cos(th), math.sin(th)])
                data.append((a, b, x0, v0, (0.0, 4.0)))
    return data


def geodesic_fan(seed: int) -> List[Op]:
    """One round: 10 fixed directions, then 36 seeded ones.  Of the 92
    integrations, 72 seeded and 2 fixed ones end at the span quickly and 18
    fixed ones run into R = 1, so the median lies inside the quick runs and
    the 90th percentile inside the slow ones, not on the edge between the
    two.  A round takes about 4 s, so each operation repeats several times in
    a run."""
    return fixed_fan() + [geodesic_op(*d) for d in seeded_fan_data(np.random.default_rng([seed, 2]))]


# -- field_eval ----------------------------------------------------------------

def _christoffel_compat(a, b, x, gamma) -> float:
    """Metric compatibility d_k g_ij = G^l_ki g_lj + G^l_kj g_il, with central
    differences of the benchmark's own Hessian, as a scaled defect."""
    alpha = np.array([a, b])
    g = ref.hessian_ratio(alpha, x)
    lhs = np.empty((2, 2, 2))
    for k in range(2):
        h = 1e-5 * x[k]
        e = np.zeros(2)
        e[k] = h
        lhs[k] = (ref.hessian_ratio(alpha, x + e) - ref.hessian_ratio(alpha, x - e)) / (2.0 * h)
    gk = np.einsum("lki,lj->kij", gamma, g)   # G^l_ki g_lj
    rhs = gk + gk.transpose(0, 2, 1)
    return float(np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(lhs)), np.max(np.abs(rhs))))


def field_op(alpha, t, v_log=None) -> Op:
    n = alpha.size
    x = np.exp(t)
    S = float(alpha @ t)
    if n == 2:
        a, b = float(alpha[0]), float(alpha[1])
        q, qd = ref.ratio_to_qr(a, b, x, v_log * x)

    @_guarded
    def execute():
        w = WeightVector(alpha)
        xp = ChartPoint(Chart.RATIO, x)
        tp = ChartPoint(Chart.LOG, t)
        t0 = time.perf_counter()
        out = {
            "cost": core.cost_ratio(xp, w),
            "log": core.transform(xp, Chart.LOG, w).coords,
            "H": hessian.hessian_ratio(xp, w).to_dense(),
            "det": hessian.det_hessian_ratio(xp, w),
            "Hlog": hessian.hessian_log(tp, w).to_dense(),
            "fisher": infogeo.fisher_info(tp, w).to_dense(),
            "sym_is": infogeo.symmetrized_is(xp, w),
        }
        if n == 2:
            out["qr"] = core.transform(tp, Chart.QR, w).coords
            out["gamma"] = connection.lc_christoffel_xy(a, b, x[0], x[1])
            out["ricci_xy"] = connection.ricci_xy(a, b, math.exp(2.0 * S))
            out["ricci_q"] = connection.ricci_q(a, b, S)
            out["ricci_ref"] = connection.ricci_xy(0.5, 0.5, 4.0)
            out["acc_xy"] = geodesics.lc_rhs_xy(geodesics.GeodesicState(Chart.RATIO, x, v_log * x, 0.0), a, b)
            out["acc_qr"] = geodesics.lc_rhs_qr(geodesics.GeodesicState(Chart.QR, q, qd, 0.0), a, b)
        dt = time.perf_counter() - t0
        if n == 2:
            out["gamma"] = out["gamma"].as_array()
        return Outcome([dt], dt, 1, out=out)

    def check(o: Outcome):
        if o.error:
            return [o.error], []
        out = o.out
        wrong = []

        def close(label, value, reference, tol):
            dev = ref.scaled_dev(value, reference)
            if not dev <= tol:
                wrong.append(f"{label} deviates by {dev:.3e}")

        c = out["cost"]
        close("cost S", c.S, S, MATRIX_TOL)
        close("cost J", c.J, math.cosh(S) - 1.0, MATRIX_TOL)
        close("cost R", c.R, math.exp(S), MATRIX_TOL)
        close("symmetrized IS", out["sym_is"], math.cosh(S) - 1.0, MATRIX_TOL)
        close("transform to log", out["log"], np.log(x), MATRIX_TOL)
        H = ref.hessian_ratio(alpha, x)
        scale = max(1.0, float(np.max(np.abs(H))))
        close("hessian_ratio", out["H"] / scale, H / scale, MATRIX_TOL)
        det = float(np.linalg.det(H))
        if not abs(out["det"] - det) <= DET_TOL * abs(det):
            wrong.append(f"determinant lemma {out['det']!r} against det {det!r}")
        Hl = ref.hessian_log(alpha, t)
        scale = max(1.0, float(np.max(np.abs(Hl))))
        close("hessian_log", out["Hlog"] / scale, Hl / scale, MATRIX_TOL)
        close("fisher_info", out["fisher"] / scale, Hl / scale, MATRIX_TOL)
        if n == 2:
            close("transform to qr", out["qr"], ref.ratio_to_qr(a, b, x, x)[0], MATRIX_TOL)
            defect = _christoffel_compat(a, b, x, out["gamma"])
            if not defect <= COMPAT_TOL:
                wrong.append(f"Christoffel metric compatibility defect {defect:.3e}")
            close("ricci_xy(e^2q) against ricci_q(q)", out["ricci_xy"], out["ricci_q"], RICCI_TOL)
            if a + b == 0.0 and out["ricci_xy"] != 0.0:
                wrong.append(f"Ricci {out['ricci_xy']!r} where a = -b")
            close("Ricci at a = b = 1/2, Z = 4", out["ricci_ref"], -8.0 / 9.0, 1e-15)
            v = v_log * x
            close("lc_rhs_xy against -Gamma(v, v)", out["acc_xy"],
                  -np.einsum("kij,i,j->k", out["gamma"], v, v), RHS_TOL)
            # chain rule from (x'', y'') to (q'', r'')
            s_dd = out["acc_xy"] / x - v_log * v_log
            close("lc_rhs_qr against lc_rhs_xy", out["acc_qr"],
                  np.array([a * s_dd[0] + b * s_dd[1], -b * s_dd[0] + a * s_dd[1]]), RHS_TOL)
        return [], wrong

    return Op(execute, check, f"field n={n}")


def field_eval(seed: int) -> List[Op]:
    """100 points per round, 25 for each n; the n = 2 weights cycle through
    a+b < 1, a+b > 1 and a = -b.  Points within 0.1 of S = 0 or of the
    secondary locus are redrawn, where the determinant and Delta lose digits."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for n in (2, 3, 5, 8):
        for k in range(25):
            if n == 2:
                cls = k % 3
                a = rng.uniform(0.15, 0.45) if cls == 0 else rng.uniform(0.6, 1.2)
                b = rng.uniform(0.15, 0.45) if cls == 0 else (rng.uniform(0.6, 1.2) if cls == 1 else -a)
                alpha = np.array([a, b])
            else:
                alpha = _weights(rng, n, rng.uniform(0.3, 1.5))
            while True:
                t = rng.uniform(-2.0, 2.0, n)
                S = float(alpha @ t)
                if abs(S) >= 0.1 and abs(ref.locus_indicator(alpha, S)) >= 0.1:
                    break
            ops.append(field_op(alpha, t, rng.uniform(-1.0, 1.0, 2) if n == 2 else None))
    return ops


# -- cli_session ---------------------------------------------------------------

class ProcessRunner:
    """Runs `recipgeo` as a child process of the checkout's src/."""

    def __init__(self, src: str, cwd: str):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.cwd = cwd

    def __call__(self, argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "recipgeo.cli", *argv], cwd=self.cwd,
                              env=self.env, capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stdout, time.perf_counter() - t0


class InProcessRunner:
    """Calls cli.main in this process, so the traced run sees its calls."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, argv):
        sub = "version" if argv[0] == "--version" else argv[0]
        main = cli.main if self.tracer is None else self.tracer.wrap(f"cli.main.{sub}", cli.main)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue(), time.perf_counter() - t0


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _csv(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), np.array([[float(v) if v else math.nan for v in ln.split(",")]
                                          for ln in lines[1:]])


def _json_table(text):
    doc = _strict_json(text)
    rows = np.array([[math.nan if v is None else v for v in row] for row in doc["rows"]], dtype=float)
    return doc, rows


def cli_op(runner, argv, expect_code, check_output) -> Op:
    @_guarded
    def execute():
        code, stdout, dt = runner(argv)
        return Outcome([dt], dt, 1, out={"code": code, "stdout": stdout})

    def check(o: Outcome):
        if o.error:
            return [o.error], []
        failed = [] if o.out["code"] == expect_code else [f"exit code {o.out['code']}, expected {expect_code}"]
        try:
            wrong = check_output(o.out["stdout"])
        except (ValueError, KeyError, IndexError, OSError) as exc:
            wrong = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return failed, wrong

    return Op(execute, check, "recipgeo " + " ".join(argv[:1]))


def _check_version(out):
    return [] if out.startswith("recipgeo ") else [f"version line {out!r}"]


def _check_verify(out):
    last = out.strip().splitlines()[-1] if out.strip() else ""
    return [] if last.startswith("OVERALL PASS") else [f"verify ends with {last!r}"]


def cli_session(seed: int, runner, workdir: str) -> List[Op]:
    """One fixed sequence of ten `recipgeo` invocations built from the seed."""
    rng = np.random.default_rng([seed, 4])
    os.makedirs(workdir, exist_ok=True)
    fmt = lambda vals: ",".join(repr(float(v)) for v in vals)
    ops = [cli_op(runner, ["--version"], 0, _check_version),
           cli_op(runner, ["verify", f"--seed={seed % 100000}"], 0, _check_verify)]

    # geodesic: one direction of a seeded fan, in both charts
    a, b, x0, v0, _ = seeded_fan_data(rng)[0]
    alpha_s = fmt([a, b])
    res_path = os.path.join(workdir, "residual.csv")

    def check_ratio(out):
        _, rows = _csv(out)
        _, res = _csv(open(res_path).read())
        _, delta = ref.delta_xy(a, b, rows[:, 1], rows[:, 2])
        far = np.abs(delta) > FAR_FROM_GUARD
        worst = float(np.max(res[far, 1], initial=0.0))
        return [] if worst <= RESIDUAL_TOL else [f"residual file holds {worst:.3e}"]

    def check_qr(out):
        doc, rows = _json_table(out)
        cols = doc["columns"]
        pos = rows[:, [cols.index("x"), cols.index("y")]]
        vel = rows[:, [cols.index("xdot"), cols.index("ydot")]]
        E = ref.energy(a, b, pos, vel)
        drift = float(np.max(np.abs(E - E[0]))) / max(1.0, abs(E[0]))
        return [] if drift <= ENERGY_TOL else [f"g(v, v) drifts by {drift:.3e} in the qr run"]

    q0, qd0 = ref.ratio_to_qr(a, b, np.asarray(x0), np.asarray(v0))
    ops.append(cli_op(runner, ["geodesic", "--alpha=" + alpha_s, "--chart=ratio", "--state=" + fmt([*x0, *v0]),
                               "--span=0,4", "--residual-output=" + res_path], 0, check_ratio))
    ops.append(cli_op(runner, ["geodesic", "--alpha=" + alpha_s, "--chart=qr", "--state=" + fmt([*q0, *qd0]),
                               "--span=0,4", "--format=json"], 0, check_qr))

    # flows: one descent (JSON) and one ascent past tau* (exit 3)
    n2 = rng.uniform(0.3, 1.5)
    alpha = _weights(rng, 3, n2)
    t0 = rng.uniform(-2.0, 2.0, 3)
    S0 = float(alpha @ t0)
    if abs(S0) < 0.3:
        t0 = t0 + (math.copysign(0.3, S0) - S0) * alpha / n2
        S0 = float(alpha @ t0)
    tau_star = ref.blowup_time(S0, n2)

    def check_descent(out):
        doc, rows = _json_table(out)
        cols = doc["columns"]
        tau, S = rows[:, cols.index("tau")], rows[:, cols.index("S")]
        S_ref, inside = ref.flow_S(S0, n2, -1.0, tau)
        dev = ref.scaled_dev(S[inside], S_ref[inside]) if inside.all() else math.inf
        return [] if dev <= S_TOL else [f"flow S deviates by {dev:.3e}"]

    def check_ascent(out):
        _, rows = _csv(out)
        rel = abs(rows[-1, 0] - tau_star) / tau_star
        return [] if rel <= BLOWUP_REL_TOL else [f"ascent halted {rel:.3e} (relative) from tau*"]

    ops.append(cli_op(runner, ["flow", "--alpha=" + fmt(alpha), "--point=" + fmt(t0), "--sign=descent",
                               f"--span=0,{rng.uniform(5.0, 20.0) / n2!r}", "--format=json"],
                      0, check_descent))
    ops.append(cli_op(runner, ["flow", "--alpha=" + fmt(alpha), "--point=" + fmt(t0), "--sign=ascent",
                               f"--span=0,{1.5 * tau_star!r}"], 3, check_ascent))

    # locus on a 201 x 201 grid with a secondary locus (a + b < 1), CSV and JSON
    la, lb = rng.uniform(0.15, 0.45, 2)
    lo, hi = -rng.uniform(2.0, 3.0), rng.uniform(2.0, 3.0)
    locus_args = ["locus", "--alpha=" + fmt([la, lb]), f"--grid={LOCUS_GRID}", "--range=" + fmt([lo, hi])]

    def check_locus(rows):
        X, Y, Z, Delta, flags = ref.locus_grid(la, lb, lo, hi, LOCUS_GRID)
        wrong = []
        if rows.shape != (LOCUS_GRID * LOCUS_GRID, 6):
            return [f"locus table has shape {rows.shape}"]
        for label, col, want in (("x", 0, X), ("y", 1, Y), ("Z", 2, Z), ("Delta", 3, Delta)):
            dev = ref.scaled_dev(rows[:, col], want)
            if not dev <= MATRIX_TOL:
                wrong.append(f"locus {label} deviates by {dev:.3e}")
        bad = int(np.sum(rows[:, 5] != flags))
        if bad:
            wrong.append(f"{bad} locus flags differ")
        return wrong

    ops.append(cli_op(runner, locus_args, 0, lambda out: check_locus(_csv(out)[1])))
    ops.append(cli_op(runner, locus_args + ["--format=json"], 0, lambda out: check_locus(_json_table(out)[1])))

    # Hessian (ratio chart) and Fisher information reports, n = 3
    h_alpha = _weights(rng, 3, rng.uniform(0.3, 1.5))
    while True:
        ht = rng.uniform(-2.0, 2.0, 3)
        hS = float(h_alpha @ ht)
        if abs(hS) >= 0.1 and abs(ref.locus_indicator(h_alpha, hS)) >= 0.1:
            break

    def report_matrix(out, prefix):
        doc = _strict_json(out)
        m = np.empty((3, 3))
        for name, value in doc["rows"]:
            if name.startswith(prefix + "["):
                i, j = int(name[len(prefix) + 1]), int(name[len(prefix) + 4])
                m[i, j] = m[j, i] = value
        return m

    def check_hessian(out):
        H = ref.hessian_ratio(h_alpha, np.exp(ht))
        scale = max(1.0, float(np.max(np.abs(H))))
        dev = ref.scaled_dev(report_matrix(out, "h") / scale, H / scale)
        return [] if dev <= MATRIX_TOL else [f"hessian report deviates by {dev:.3e}"]

    def check_fisher(out):
        F = ref.hessian_log(h_alpha, ht)
        scale = max(1.0, float(np.max(np.abs(F))))
        dev = ref.scaled_dev(report_matrix(out, "I") / scale, F / scale)
        return [] if dev <= MATRIX_TOL else [f"fisher report deviates by {dev:.3e}"]

    ops.append(cli_op(runner, ["hessian", "--alpha=" + fmt(h_alpha), "--chart=ratio",
                               "--point=" + fmt(np.exp(ht)), "--format=json"], 0, check_hessian))
    ops.append(cli_op(runner, ["fisher", "--alpha=" + fmt(h_alpha), "--point=" + fmt(ht), "--format=json"],
                      0, check_fisher))
    return ops
