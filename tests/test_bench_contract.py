"""The benchmark's view of the program: one operation of each benchmark
workload, untraced and traced, against this checkout's src/.

perfbench/workloads.py reads Trajectory.lambdas/positions/velocities,
SymMatrix.to_dense and ChristoffelTensor.as_array, and perfbench/spans.py
counts residual samples with len(traj.samples).  An API change that breaks
either should fail here rather than in a benchmark run.  The operations run
in a child process, because the tracer rewrites module attributes; nothing
under perfbench/ is written.
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
run("flow", wl.flow_batch(1)[0])
run("geodesic", geodesic)
run("field", wl.field_eval(1)[0])
tracer = spans.Tracer()
tracer.install()
run("geodesic traced", geodesic)
report["traced"] = {name: calls for name, (calls, _, _) in tracer.aggregate(0, tracer.mark()).items()}
report["residual samples"] = tracer.counts["geodesics.qr_residual"]
print(json.dumps(report))
"""


def test_benchmark_operations_run_and_check():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, ROOT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for label in ("flow", "geodesic", "field", "geodesic traced"):
        assert report[label]["failed"] == [] and report[label]["wrong"] == [], (label, report[label])
    assert report["geodesic"]["units"] == 2
    traced = report["traced"]
    assert traced["geodesics.integrate_geodesic"] == 2
    assert traced["ode.dense_sample"] == 2
    assert traced["geodesics.qr_residual"] == 1
    assert report["residual samples"] == 512
