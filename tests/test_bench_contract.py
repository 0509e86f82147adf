"""The benchmark's view of the program: one operation of each benchmark
workload, untraced and traced, against this checkout's src/.

perfbench/ reads these recipgeo names, so an API change that breaks one of
them should fail here rather than in a benchmark run:
- core: Chart, ChartPoint, WeightVector, cost_ratio (.S, .J, .R) and
  transform (.coords);
- hessian: hessian_ratio, hessian_log, det_hessian_ratio and
  SymMatrix.to_dense, which the tracer wraps as hessian.to_dense;
- infogeo: fisher_info (.to_dense) and symmetrized_is;
- connection: lc_christoffel_xy (ChristoffelTensor.as_array), ricci_xy and
  ricci_q;
- geodesics: GeodesicState, integrate_geodesic, lc_rhs_xy, lc_rhs_qr and
  qr_residual; Trajectory.lambdas, positions, velocities, termination and
  samples, whose length the tracer takes as the residual sample count;
- flows: FlowSign and integrate_flow;
- ode: step (StepResult.accepted), dense_sample, and integrate called as
  integrate(rhs, y0, span, tol, stop=...);
- verify.SUITES and cli.main.
The operations run in a child process, because the tracer rewrites module
attributes; nothing under perfbench/ is written.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import recipgeo
import spans
import workloads as wl

assert recipgeo.__file__.startswith(root + "/src/"), recipgeo.__file__
report = {}

def run(label, op):
    outcome = op.execute()
    failed, wrong = op.check(outcome)
    report[label] = {"failed": failed, "wrong": wrong, "units": outcome.units}

geodesic = wl.geodesic_fan(1)[10]   # the first seeded datum, expected to pass
flow = wl.flow_batch(1)[0]
field = wl.field_eval(1)[0]
run("flow", flow)
run("geodesic", geodesic)
run("field", field)
tracer = spans.Tracer()
tracer.install()
for label, op in (("geodesic", geodesic), ("flow", flow), ("field", field)):
    lo = tracer.mark()
    run(label + " traced", op)
    calls = tracer.aggregate(lo, tracer.mark())
    report[label + " traced"]["calls"] = {name: n for name, (n, _, _) in calls.items() if n}
report["residual samples"] = tracer.counts["geodesics.qr_residual"]
print(json.dumps(report))
"""


def test_benchmark_operations_run_and_check():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, ROOT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for label in ("flow", "geodesic", "field", "flow traced", "geodesic traced", "field traced"):
        assert report[label]["failed"] == [] and report[label]["wrong"] == [], (label, report[label])
    assert report["geodesic"]["units"] == 2
    traced = report["geodesic traced"]["calls"]
    assert traced["geodesics.integrate_geodesic"] == 2
    assert traced["ode.dense_sample"] == 2
    assert traced["geodesics.qr_residual"] == 1
    assert report["residual samples"] == 512
    traced = report["flow traced"]["calls"]
    assert traced["flows.integrate_flow"] == 1
    assert traced["ode.integrate"] == 1
    traced = report["field traced"]["calls"]
    assert traced["hessian.to_dense"] == 3   # hessian_ratio, hessian_log and fisher_info
    assert "ode.integrate" not in traced
