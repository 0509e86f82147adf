"""Self-test of the benchmark's checks: each workload's check is fed a
deliberately wrong value and must count the operation as failed.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 0 when every corruption is caught.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    import numpy as np

    import workloads as wl

    results = []

    def expect(label, op, mutate):
        o = op.execute()
        clean = op.check(o)
        mutate(o)
        f, w = op.check(o)
        caught = not (clean[0] or clean[1]) and bool(f or w)
        results.append(caught)
        print(f"{'ok  ' if caught else 'MISS'} {label}: clean={clean} corrupted={f + w}")

    # flow_batch: S off by 1e-6, a radical projection off by 1e-9, tau* missed
    flow = wl.flow_batch(0)
    descent, ascent = flow[0], flow[6]

    def shift_S(o, op_alpha):
        o.out["pos"] = o.out["pos"] + 1e-6 * op_alpha / float(op_alpha @ op_alpha)

    def radical_offset(o, op_alpha):
        basis = wl.ref.radical_basis(op_alpha)
        o.out["pos"] = o.out["pos"] + 1e-9 * basis[0]

    d_alpha = descent.inputs["alpha"]
    expect("flow S + 1e-6", descent, lambda o: shift_S(o, d_alpha))
    expect("flow radical projection + 1e-9", descent, lambda o: radical_offset(o, d_alpha))
    expect("ascent halted at 0.99 tau_end", ascent,
           lambda o: o.out.update(lam=o.out["lam"] * 0.99))
    expect("ascent reported as span_complete", ascent, lambda o: o.out.update(termination="span_complete"))

    # geodesic_fan: residual, g(v, v) and cross-chart agreement
    seeded = wl.geodesic_fan(0)[len(wl.fixed_fan())]

    def bump_residual(o):
        o.out["residual"] = o.out["residual"].copy()
        o.out["residual"][100] = 1e-7

    def scale_velocity(o):
        vel = o.out["ratio"]["vel"].copy()
        vel[256:] *= 1.0 + 1e-5
        o.out["ratio"]["vel"] = vel

    expect("geodesic residual 1e-7", seeded, bump_residual)
    expect("geodesic velocity x (1 + 1e-5) on the second half", seeded, scale_velocity)
    expect("geodesic qr chart reports step_underflow", seeded,
           lambda o: o.out["qr"].update(termination="step_underflow"))
    expect("geodesic qr chart ends 1e-6 early", seeded,
           lambda o: o.out["qr"].update(lam=o.out["qr"]["lam"] - 1e-6))

    # field_eval: one entry or value scaled by 1 + 1e-6 at a time
    point = wl.field_eval(0)[0]     # n = 2, reaches every check

    def scale(key, index=None, factor=1.0 + 1e-6):
        def mutate(o):
            if index is None:
                o.out[key] = o.out[key] * factor
            else:
                o.out[key] = np.array(o.out[key], dtype=float)
                o.out[key][index] *= factor
        return mutate

    expect("hessian_ratio entry x (1 + 1e-6)", point, scale("H", (0, 1)))
    expect("determinant x (1 + 1e-6)", point, scale("det"))
    expect("hessian_log entry x (1 + 1e-6)", point, scale("Hlog", (1, 1)))
    expect("fisher_info entry x (1 + 1e-6)", point, scale("fisher", (0, 0)))
    expect("symmetrized IS x (1 + 1e-6)", point, scale("sym_is"))
    expect("Christoffel entry x (1 + 1e-4)", point, scale("gamma", (0, 0, 1), 1.0 + 1e-4))
    expect("ricci_q x (1 + 1e-6)", point, scale("ricci_q"))
    expect("lc_rhs_qr x (1 + 1e-6)", point, scale("acc_qr", 0))

    # cli_session: a perturbed verify run, a corrupted report, a wrong exit code
    runner = wl.ProcessRunner(run.SRC, run.ROOT)
    perturbed = wl.cli_op(runner, ["verify", "--seed=0", "--perturb=1e-3"], 0, wl._check_verify)
    o = perturbed.execute()
    f, w = perturbed.check(o)
    results.append(bool(f and w))
    print(f"{'ok  ' if f and w else 'MISS'} verify --perturb 1e-3: {f + w}")

    session = wl.cli_session(0, runner, run.OUT + "/cli")
    hessian_op = next(op for op in session if op.label == "recipgeo hessian")
    locus_op = next(op for op in session if op.label == "recipgeo locus")

    def corrupt_report(o):
        doc = json.loads(o.out["stdout"])
        for row in doc["rows"]:
            if row[0] == "h[0][1]":
                row[1] *= 1.0 + 1e-6
        o.out["stdout"] = json.dumps(doc)

    def flip_flag(o):
        lines = o.out["stdout"].splitlines()
        cells = lines[1].split(",")
        cells[-1] = str(int(cells[-1]) ^ 1)
        lines[1] = ",".join(cells)
        o.out["stdout"] = "\n".join(lines) + "\n"

    expect("hessian report entry x (1 + 1e-6)", hessian_op, corrupt_report)
    expect("locus flag flipped", locus_op, flip_flag)
    expect("locus exits 2", locus_op, lambda o: o.out.update(code=2))

    print(f"{sum(results)}/{len(results)} corruptions caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
