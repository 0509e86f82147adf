import json
import math
import warnings

import numpy as np
import pytest

from recipgeo import (
    __version__,
    Chart,
    ChartPoint,
    TerminationReason,
    WeightVector,
    cost_log,
    delta,
    flows,
    geodesics,
    lc_christoffel_st,
    lc_christoffel_xy,
    verify,
    z_xy,
)
from recipgeo.cli import _emit, _json_safe, main
from recipgeo.core import alpha_dot

from conftest import assert_close


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def strict_loads(text):
    """Parse JSON, rejecting the non-standard NaN/Infinity/-Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def kv_table(capsys):
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "quantity,value"
    table = {}
    for line in out[1:]:
        key, _, val = line.partition(",")
        table[key] = val
    return table


class TestEval:
    def test_unit_point(self, capsys):
        assert main(["eval", "--alpha", "0.5,0.5", "--chart", "ratio", "--point", "1,1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "J,R,S,G"
        assert out[1].split(",")[0] == "0"

    def test_one_dimensional(self, capsys):
        assert main(["eval", "--alpha", "1", "--chart", "ratio", "--point", "2"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert_close(float(row[0]), 0.25, 1e-15)

    def test_malformed_alpha_exits_2(self, capsys):
        assert main(["eval", "--alpha", "nope", "--chart", "ratio", "--point", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_nonpositive_point_exits_2(self, capsys):
        assert main(["eval", "--alpha", "1", "--chart", "ratio", "--point", "-1"]) == 2

    def test_json_format(self, capsys):
        assert main(["eval", "--alpha", "1", "--point", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["alpha"] == [1.0]
        assert doc["columns"] == ["J", "R", "S", "G"]
        assert doc["rows"][0][0] == pytest.approx(0.25)


class TestHessian:
    def test_log_chart_rank_one(self, capsys):
        assert main(["hessian", "--chart", "log", "--point", "0,0", "--alpha", "0.5,0.5"]) == 0
        table = kv_table(capsys)
        assert table["rank"] == "1"

    def test_unit_point_matrix(self, capsys):
        assert main(["hessian", "--chart", "ratio", "--point", "1,1", "--alpha", "0.5,0.5"]) == 0
        table = kv_table(capsys)
        assert_close(float(table["h[0][0]"]), 0.25, 1e-15)
        assert_close(float(table["h[0][1]"]), 0.25, 1e-15)
        assert_close(float(table["det"]), 0.0, 1e-15)

    def test_determinant_value(self, capsys):
        assert main(["hessian", "--chart", "ratio", "--point", "2,1", "--alpha", "1,1"]) == 0
        table = kv_table(capsys)
        assert_close(float(table["det"]), -0.328125, 1e-12)
        assert_close(float(table["det_lemma"]), -0.328125, 1e-12)


    def test_subnormal_determinant_unwarned(self, capsys):
        # entries and determinant subnormal or zero: numpy's LU divides by
        # zero on the way, unwarned, and the report keeps its bytes
        argv = ["hessian", "--chart", "ratio", "--alpha=-3.2477906522764906e-122,-2.1672478321195007e-68",
                "--point=5.643185458960553e+44,1.4213928485581296e+86"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "quantity,value\nh[0][0],0\nh[0][1],8.7746058701405386e-321\nh[1][1],0\nrank,2\ndet,-0\n"
            "S,-4.2992552450271949e-66\nJ,9.2417978309469232e-132\nsum_alpha,-2.1672478321195007e-68\n"
            "singular_S,-2.1672478321195007e-68\ndet_lemma,-0\nbeta,1\na_scale,-0\n"
            "u[0],-5.7552435160880181e-167\ndiag[0],-1.0198572345251446e-211\n"
            "u[1],-1.5247352864607213e-154\ndiag[1],-1.0727050498441885e-240\nlocus_value,\n"
        )
        assert [line.startswith("{") for line in captured.err.splitlines()] == [True]

    def test_json_types(self, capsys):
        assert main([
            "hessian", "--chart", "log", "--point", "0,0", "--alpha", "0.5,0.5", "--format", "json",
        ]) == 0
        doc = strict_loads(capsys.readouterr().out)
        table = dict(doc["rows"])
        assert type(table["rank"]) is int and table["rank"] == 1
        assert table["singular_S"] is None   # |sum(alpha)| = 1: no secondary locus
        assert table["locus_value"] is None  # origin lies on the zero-cost surface


class TestChristoffel:
    """Each printed row against the library: G^k_ij is as_array()[k, i, j]."""

    @pytest.mark.parametrize("chart", ["ratio", "log"])
    def test_rows_match_library(self, capsys, chart):
        a, b, p = 0.3, 0.5, (1.2, 0.7)
        assert main(["christoffel", "--alpha", f"{a},{b}", "--chart", chart, "--point", "1.2,0.7"]) == 0
        table = kv_table(capsys)
        if chart == "ratio":
            gamma = lc_christoffel_xy(a, b, *p).as_array()
            names = "xy"
            Z = z_xy(a, b, *p)
            assert float(table.pop("Z")) == Z
            assert float(table.pop("Delta")) == delta(a, b, Z)
        else:
            gamma = lc_christoffel_st(a, b, *p).as_array()
            names = "st"
            assert float(table.pop("q")) == a * p[0] + b * p[1]
        components = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]
        assert len(table) == len(components)
        for k, i, j in components:
            assert float(table[f"G^{names[k]}_{names[i]}{names[j]}"]) == gamma[k, i, j]
        assert len({gamma[c] for c in components}) == len(components)  # a swapped label would show


class TestGeodesic:
    def test_reference_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "geodesic", "--alpha", f"{1/3},{1/2}", "--state", "4,2,-1,1",
            "--span", "0,8", "--samples", "64", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "x", "y", "xdot", "ydot", "q", "r", "J", "Delta", "residual"]
        assert len(rows) >= 2
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["termination"] in (
            "singularity_reached", "step_underflow", "span_complete", "domain_boundary",
        )
        first = dict(zip(header, map(float, rows[0])))
        assert first["x"] == 4.0 and first["y"] == 2.0

    def test_affine_truncation(self, tmp_path):
        out = tmp_path / "affine.csv"
        code = main([
            "geodesic", "--alpha", "1,1", "--type", "affine", "--structure", "ratio",
            "--state", "1,1,-1,0", "--span", "0,5", "--samples", "32", "--output", str(out),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "affine.csv.meta.json").read_text())
        assert meta["termination"] == "domain_boundary"
        _, rows = read_csv(out)
        assert float(rows[-1][0]) < 1.0  # lambda stops before the x = 0 wall

    @pytest.mark.parametrize("structure, state", [("log", "1,1,1e12,0"), ("ratio", "1,1,-1e10,0")])
    def test_affine_edge_closer_than_margin(self, tmp_path, structure, state):
        # the domain edge lies within 1e-9 of the span from lambda = 0: the
        # samples still run forward from 0, and every x, x' stays finite
        out = tmp_path / "affine.csv"
        code = main([
            "geodesic", "--alpha", "1,1", "--type", "affine", "--structure", structure,
            "--state", state, "--span", "0,1", "--samples", "3", "--output", str(out),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "affine.csv.meta.json").read_text())
        assert meta["termination"] == "domain_boundary"
        table = np.array(read_csv(out)[1], dtype=float)
        assert table[0, 0] == 0.0 and np.all(np.diff(table[:, 0]) > 0.0)
        assert meta["lam_end"] == table[-1, 0] > 0.0
        assert np.all(np.isfinite(table)) and np.all(table[:, 1:3] > 0.0)

    def test_singular_start_exits_3(self, capsys, tmp_path):
        code = main([
            "geodesic", "--alpha", "0.5,0.5", "--state", "1,1,1,0",
            "--span", "0,1", "--output", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_qr_chart_integration(self, tmp_path):
        out = tmp_path / "qr.csv"
        code = main([
            "geodesic", "--alpha", "0.5,0.5", "--chart", "qr", "--state", "1,0.3,-0.4,0",
            "--span", "0,2", "--samples", "32", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        q_idx, r_idx = header.index("q"), header.index("r")
        assert float(rows[0][q_idx]) == 1.0
        # the symmetric case keeps r frozen
        assert all(abs(float(r[r_idx]) - 0.3) <= 1e-9 for r in rows)

    def test_qr_chart_rows_match_ratio_chart(self, capsys):
        # reference run 2 in both charts: the qr run's rows, mapped back to
        # the ratio chart, agree with the ratio run's, and its residual
        # column is small away from the singular guard
        a, b = -2.0, 1.0
        s0, t0 = 0.0, math.log(2.0)
        sd, td = -1.0, 1.5
        qr_state = [a * s0 + b * t0, -b * s0 + a * t0, a * sd + b * td, -b * sd + a * td]
        tables = {}
        for chart, state in (("ratio", "1,2,-1,3"), ("qr", ",".join(map(repr, qr_state)))):
            assert main(["geodesic", "--alpha=-2,1", "--chart", chart, "--state=" + state,
                         "--span", "0,2", "--samples", "64", "--format", "json"]) == 0
            doc = strict_loads(capsys.readouterr().out)
            tables[chart] = np.array(doc["rows"], dtype=float)
        cols = doc["columns"]
        ratio, qr = tables["ratio"], tables["qr"]
        for name in ("x", "y", "xdot", "ydot", "q", "r", "J", "Delta"):
            j = cols.index(name)
            scale = np.maximum(1.0, np.abs(ratio[:, j]))
            assert np.max(np.abs(qr[:, j] - ratio[:, j]) / scale) <= 1e-7, name
        far = np.abs(qr[:, cols.index("Delta")]) > 1e-3
        assert np.max(qr[far, cols.index("residual")]) <= 1e-8

    def test_affine_three_dimensional(self, tmp_path):
        out = tmp_path / "aff3.csv"
        code = main([
            "geodesic", "--alpha", "0.4,0.3,0.3", "--type", "affine", "--structure", "log",
            "--state", "1,2,1,0.5,-0.5,0.1", "--span", "0,2", "--samples", "16",
            "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "x1", "x2", "x3", "v1", "v2", "v3", "J"]
        assert len(rows) == 16

    def test_residual_file(self, tmp_path):
        out = tmp_path / "t.csv"
        res = tmp_path / "r.csv"
        code = main([
            "geodesic", "--alpha=-2,1", "--state", "1,2,-1,3", "--span", "0,2",
            "--samples", "32", "--output", str(out), "--residual-output", str(res),
        ])
        assert code == 0
        header, rows = read_csv(res)
        assert header == ["lambda", "residual"]
        assert max(float(r[1]) for r in rows) <= 1e-8
        # the same cells, byte for byte, as the lambda and residual columns of the trajectory CSV
        lines = [line.split(",") for line in out.read_text().splitlines()]
        i, j = lines[0].index("lambda"), lines[0].index("residual")
        assert res.read_text() == "".join(f"{c[i]},{c[j]}\n" for c in lines)

    def test_affine_residual_output_exits_2(self, tmp_path, capsys):
        out, res = tmp_path / "a.csv", tmp_path / "r.csv"
        code = main([
            "geodesic", "--alpha", "1,1", "--type", "affine", "--structure", "ratio", "--state", "1,1,-1,0",
            "--span", "0,5", "--output", str(out), "--residual-output", str(res),
        ])
        assert code == 2
        assert "--residual-output" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFlow:
    def test_descent_monotone(self, tmp_path):
        out = tmp_path / "flow.csv"
        code = main([
            "flow", "--alpha", "1,1", "--point", "1.2,0.8", "--sign", "descent",
            "--span", "0,30", "--samples", "64", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        j_idx = header.index("J")
        costs = [float(r[j_idx]) for r in rows]
        assert all(c1 >= c2 - 1e-12 for c1, c2 in zip(costs, costs[1:]))
        assert costs[-1] < 1e-12

    def test_ascent_blowup_exits_3(self, tmp_path, capsys):
        out = tmp_path / "ascent.csv"
        code = main([
            "flow", "--alpha", "0.5,0.5", "--point", "1.2,0.8", "--sign", "ascent",
            "--span", "0,5", "--samples", "32", "--output", str(out),
        ])
        assert code == 3
        meta = json.loads((tmp_path / "ascent.csv.meta.json").read_text())
        assert meta["tau_star"] == pytest.approx(1.5438736658106096, rel=1e-9)

    def test_columns_match_point_calls(self, capsys):
        """Every S, S_closed, J and r cell has the bits of the library's
        one-point call, the last sample too: the ascent stops short of tau*."""
        argv = ["flow", "--alpha", "0.5,0.5", "--point", "1.2,0.8", "--sign", "ascent", "--span", "0,5"]
        assert main(argv) == 3
        lines = capsys.readouterr().out.splitlines()
        header, csv_rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        assert main(argv + ["--format", "json"]) == 3
        doc = strict_loads(capsys.readouterr().out)
        assert doc["columns"] == header == ["tau", "S", "S_closed", "J", "t1", "t2", "r1"]
        assert len(doc["rows"]) == len(csv_rows) == 512
        w = WeightVector(np.array([0.5, 0.5]))
        S0 = alpha_dot(np.array([1.2, 0.8]), w.alpha)
        for cells, row in zip(csv_rows, doc["rows"]):
            tau, t = float(cells[0]), np.array([float(cells[4]), float(cells[5])])
            S = alpha_dot(t, w.alpha)
            want = [tau, S, flows.closed_form_S(S0, tau, w, flows.FlowSign.ASCENT),
                    cost_log(ChartPoint(Chart.LOG, t), w).J, *t, *flows.radical_projections(t, w)]
            assert row == want
            assert [float(c) for c in cells] == want

    def test_span_not_starting_at_zero(self, capsys):
        # the closed form and tau* are measured from the start of the span
        argv = ["flow", "--alpha", "0.5,0.5", "--point", "1.2,0.8", "--sign", "ascent", "--span", "1,3",
                "--samples", "64"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].split(",")[:3] == ["tau", "S", "S_closed"]
        w = WeightVector(np.array([0.5, 0.5]))
        for line in lines[1:]:
            tau, _, s_closed = line.split(",")[:3]
            assert float(s_closed) == flows.closed_form_S(1.0, float(tau) - 1.0, w, flows.FlowSign.ASCENT)
        assert float(lines[1].split(",")[2]) == 1.0
        tau_star = 1.0 + flows.blowup_time(1.0, w)
        assert strict_loads(captured.err.splitlines()[0])["tau_star"] == tau_star
        assert captured.err.splitlines()[1] == f"error: ascent blowup inside span at tau* = {tau_star:.17g}"

    def test_stationary_point(self, tmp_path):
        out = tmp_path / "fixed.csv"
        code = main([
            "flow", "--alpha", "1,-1", "--point", "2,2", "--sign", "descent",
            "--span", "0,3", "--samples", "16", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        s_idx = header.index("S")
        assert all(float(r[s_idx]) == 0.0 for r in rows)


    def test_infinite_blowup_time_is_null(self, tmp_path, capsys):
        argv = ["flow", "--alpha", "1,-1", "--point", "2,2", "--sign", "ascent",
                "--span", "0,1", "--samples", "4"]
        out = tmp_path / "fixed.csv"
        assert main(argv + ["--output", str(out)]) == 0
        assert strict_loads((tmp_path / "fixed.csv.meta.json").read_text())["tau_star"] is None
        capsys.readouterr()
        assert main(argv) == 0
        assert strict_loads(capsys.readouterr().err)["tau_star"] is None


# The exit code of each end a run can report, written out here so that a new
# TerminationReason fails the exit-table test until its code is chosen.
EXIT_BY_END = {"span_complete": 0, "singularity_reached": 0, "domain_boundary": 0, "converged": 0,
               "blowup": 3, "step_underflow": 3, "max_steps": 3}


class TestExitTable:
    @pytest.mark.parametrize("end", list(TerminationReason), ids=lambda end: end.value)
    @pytest.mark.parametrize("module, name, argv", [
        (flows, "integrate_flow", "flow --alpha 0.5,0.5 --point 1.2,0.8 --span 0,1 --samples 4"),
        (geodesics, "integrate_geodesic", "geodesic --alpha=-2,1 --state 1,2,-1,3 --span 0,2 --samples 4"),
    ], ids=["flow", "geodesic"])
    def test_every_end(self, monkeypatch, capsys, end, module, name, argv):
        integrate = getattr(module, name)

        def ending(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            traj.termination = end
            return traj

        monkeypatch.setattr(module, name, ending)
        assert main(argv.split()) == EXIT_BY_END[end.value]
        err = capsys.readouterr().err.splitlines()
        assert strict_loads(err[0])["termination"] == end.value
        errors = [line for line in err if line.startswith("error:")]
        assert len(errors) == len(err) - 1 == (1 if EXIT_BY_END[end.value] == 3 else 0)
        assert all(end.value in line for line in errors)

    @pytest.mark.parametrize("argv, code, end", [
        # the first step from S0 = 40 underflows: no step is made
        ("flow --alpha 1 --point 40 --span 0,1", 3, "step_underflow"),
        # the singular set lies 1.1e-6 along a span of 1
        ("geodesic --alpha 0.5,0.5 --state 1,1.000006,0,-1 --span 0,1 --samples 3", 0, "singularity_reached"),
        # S = 2 lambda reaches S_MAX at lambda = 350
        ("geodesic --type affine --structure log --alpha 1,1 --state 1,1,1,1 --span 0,1000 --samples 3",
         0, "domain_boundary"),
        # S = 921 - 2 lambda is past S_MAX at lambda = 0 but inside it on the span
        ("geodesic --type affine --structure log --alpha 1,1 --state 1e200,1e200,-1,-1 --span 300,400 --samples 3",
         0, "span_complete"),
    ])
    def test_run_ends(self, capsys, argv, code, end):
        assert main(argv.split()) == code
        err = capsys.readouterr().err.splitlines()
        assert strict_loads(err[0])["termination"] == end
        assert [line.split(" at ")[0] for line in err[1:]] == ([f"error: {end}"] if code else [])

    @pytest.mark.parametrize("argv", [
        "geodesic --alpha 0.5,0.5 --state 1,1,1,0 --span 0,1",
        "geodesic --type affine --structure ratio --alpha 1,1 --state 1,1,-1,0 --span 5,6",
        "geodesic --type affine --structure log --alpha 1,1 --state 1e200,1e200,-1,-1 --span 0,1",
    ], ids=["lc-at-guard", "affine-outside-domain", "affine-past-S-wall"])
    def test_inadmissible_start_exits_3(self, capsys, argv):
        assert main(argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InadmissibleInitialState: ")
        assert len(captured.err.splitlines()) == 1


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["flow", "--alpha", "0.5,0.5", "--point", "1.2,0.8", "--span", "0,1", "--tol", "inf"],
        ["flow", "--alpha", "0.5,0.5", "--point", "1.2,0.8", "--span", "0,1", "--tol", "nan"],
        ["flow", "--alpha", "1,-1", "--point", "2,2", "--span", "0,1", "--tol", "nan"],
        ["geodesic", "--alpha", f"{1/3},{1/2}", "--state", "4,2,-1,1", "--span", "0,8", "--tol", "nan"],
        ["flow", "--alpha", "0.5,0.5", "--point", "nan,0.8", "--span", "0,1"],
        ["flow", "--alpha", "0.5,inf", "--point", "1.2,0.8", "--span", "0,1"],
        ["geodesic", "--alpha", "0.5,0.5", "--state", "4,2,-inf,1", "--span", "0,1"],
        ["locus", "--alpha", "0.5,0.5", "--grid", "2", "--range=0,inf"],
        ["eval", "--alpha", "1", "--point", "nan"],
        ["geodesic", "--alpha", "1,1", "--type", "affine", "--state", "1,1,-1,0", "--span", "0,5",
         "--tol", "nan"],
        ["ricci", "--alpha", "0.5,0.5", "--Z", "inf"],
        ["ricci", "--alpha", "0.5,0.5", "--q", "nan"],
        ["verify", "--suite", "composition_law", "--perturb", "nan"],
    ], ids=["flow-tol-inf", "flow-tol-nan", "converged-flow-tol-nan", "geodesic-tol-nan",
            "flow-point-nan", "flow-alpha-inf", "geodesic-state-inf", "locus-range-inf", "eval-point-nan",
            "affine-tol-nan", "ricci-Z-inf", "ricci-q-nan", "verify-perturb-nan"])
    def test_non_finite_number_exits_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        "hessian --chart log --alpha 1 --point 800",
        "eval --chart log --alpha 1 --point 800",
        "hessian --chart ratio --alpha 1,1 --point 1e300,1e300",
        "ricci --alpha 1,1 --q 800",
        "christoffel --alpha 1,1 --chart log --point 400,400",
        "flow --alpha 1 --point 800 --span 0,1",
        "flow --alpha 1e200,1e200 --point 1,1 --span 0,1",
        "locus --alpha 1,1 --grid 3 --range 800,900",
        "christoffel --chart log --alpha 1,1 --point 200,200",
        "christoffel --alpha 1,1 --point 1e100,1e100",
        "ricci --alpha 1,1 --Z 1e300",
        # q inside the wall: x^2 leaves the double range past the coordinate
        # wall, and y / x^2 inside it
        "christoffel --alpha 1,1.001 --point 1e-200,1e200",
        "christoffel --alpha 1,1.001 --point 1.5e-152,6.6e151",
        # S = 0 inside its wall, x_i^2 past the coordinate wall
        "hessian --chart ratio --alpha 1,-1 --point 1e-200,1e-200",
        # inside both walls (S = 661.1, 2|log x_i| = 695.9), R / x_2^2 past
        # the double range
        "hessian --chart ratio --alpha 2,0.1 --point 1.3e151,7.6e-152",
        # S = 260 inside the wall, cosh S * alpha_i alpha_j past the double range
        "hessian --chart log --alpha 1e100,1e100 --point 1.3e-98,1.3e-98",
        "fisher --alpha 1e100,1e100 --point 1.3e-98,1.3e-98",
        # a subnormal weight: the LU of the direct determinant divides by zero,
        # and the determinant lemma's det(A) underflows
        "hessian --chart ratio --alpha 1e-310,1 --point 1e10,2",
        # q = 275.5 inside the wall 2|q| <= S_MAX, G^t_ss past the double range
        "christoffel --chart log --alpha=-1.2819326382081938e+152,7.691090675299943e+22"
        " --point=-2.149311366132404e-150,-5.0785004443045275e-151",
        # (a + b)^2 past the double range, inside the wall |q| <= S_MAX
        "ricci --alpha 9.4e153,9.4e153 --q 0.5",
        # q = a s + b t itself past the double range
        "christoffel --chart log --alpha 1e150,1 --point 1e200,1",
        # S = alpha . t itself past the double range
        "eval --chart log --alpha 1e150,1 --point 1e200,1",
        "hessian --chart log --alpha 1e150,1 --point 1e200,1",
        "fisher --alpha 1e150,1 --point 1e200,1",
        "flow --alpha 1e150,1 --point 1e200,1 --span 0,1",
    ])
    def test_past_the_overflow_wall_exits_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --range" if argv.startswith("locus") else "error: Overflow:")
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["flow", "--alpha", "1,-1", "--point", "2,2", "--span", "0,1", "--tol", "0"],
        ["geodesic", "--alpha", "1,1", "--state", "1,1,1,0", "--span", "0,1", "--tol", "0"],
        ["flow", "--alpha", "1,-1", "--point", "2,2", "--span", "0,1", "--tol=-1e-8"],
        ["geodesic", "--alpha", "1,1", "--state", "1,1,1,0", "--span", "0,1", "--tol=-1e-8"],
    ], ids=["converged-flow-0", "singular-geodesic-0", "converged-flow-negative", "singular-geodesic-negative"])
    def test_nonpositive_tol_exits_2(self, capsys, argv):
        # checked before the run, so also where it would stop at its start
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--alpha", f"{1/3},{1/2}", "--state", "4,2,-1,1", "--span", "0,8", "--samples", "0"],
        ["geodesic", "--alpha", "1,1", "--type", "affine", "--state", "1,1,-1,0", "--span", "0,5",
         "--samples", "1"],
        ["flow", "--alpha", "0.5,0.5", "--point", "1.2,0.8", "--span", "0,1", "--samples", "-3"],
        ["flow", "--alpha", "0.5,0.5", "--point", "1.2,0.8", "--span", "0,1", "--samples", "0"],
    ], ids=["geodesic-0", "affine-1", "flow-minus-3", "flow-0"])
    def test_too_few_samples_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "InvalidSampleCount" in captured.err


class TestLocus:
    def test_singular_flags_present(self, tmp_path):
        out = tmp_path / "locus.csv"
        code = main([
            "locus", "--alpha", f"{1/3},{1/2}", "--grid", "41", "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        flags = np.array([int(r[header.index("flags")]) for r in rows])
        assert np.sum((flags & 2) > 0) > 0   # singular locus exists (|a+b| < 1)
        assert np.sum((flags & 1) > 0) > 0   # zero-cost curve crosses the box

    def test_no_singular_locus_when_sum_is_one_in_magnitude(self, tmp_path):
        out = tmp_path / "locus.csv"
        code = main(["locus", "--alpha=-2,1", "--grid", "31", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        flags = np.array([int(r[header.index("flags")]) for r in rows])
        assert np.sum((flags & 2) > 0) == 0

    def test_ricci_zero_for_cancelling_weights(self, tmp_path):
        out = tmp_path / "locus.csv"
        code = main(["locus", "--alpha", "1,-1", "--grid", "21", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        r_idx = header.index("Ricci")
        assert all(float(r[r_idx]) == 0.0 for r in rows)


    def test_json_ricci_null_on_zero_cost(self, capsys):
        argv = ["locus", "--alpha", f"{1/3},{1/2}", "--grid", "41"]
        assert main(argv) == 0
        csv_rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert main(argv + ["--format", "json"]) == 0
        doc = strict_loads(capsys.readouterr().out)
        cols = doc["columns"]
        z_idx, r_idx, f_idx = cols.index("Z"), cols.index("Ricci"), cols.index("flags")
        assert len(doc["rows"]) == len(csv_rows) == 41 * 41
        on_zero_cost = 0
        for row, csv_row in zip(doc["rows"], csv_rows):
            if row[f_idx] & 1 and row[z_idx] == 1.0:
                on_zero_cost += 1
                assert row[r_idx] is None
            csv_ricci = float(csv_row[r_idx])
            if math.isfinite(csv_ricci):
                assert row[r_idx] == csv_ricci
            else:
                assert row[r_idx] is None
        assert on_zero_cost >= 1  # the grid holds the origin, where Z = 1 exactly

    def test_ricci_nan_near_zero_cost(self, capsys):
        # log x = -0.45, log y = 0.3 lies on R = 1, where Z - 1 is round-off
        argv = ["locus", "--alpha", f"{1/3},{1/2}", "--grid", "41"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = lines[1 + 17 * 41 + 22].split(",")
        assert math.log(float(cells[0])) == pytest.approx(-0.45)
        assert math.log(float(cells[1])) == pytest.approx(0.3)
        assert cells[4] == "nan" and int(cells[5]) & 1
        assert main(argv + ["--format", "json"]) == 0
        assert strict_loads(capsys.readouterr().out)["rows"][17 * 41 + 22][4] is None


class TestVerify:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["verify", "--seed", "7", "--suite", "composition_law", "--output", str(a)]) == 0
        assert main(["verify", "--seed", "7", "--suite", "composition_law", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["verify", "--seed", "3", "--suite", "composition_law", "--output", str(a)]) == 0
        monkeypatch.setenv("RECIPGEO_SEED", "3")
        assert main(["verify", "--suite", "composition_law", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suite", [None, "flows", "composition_law"])
    def test_negative_seed_option_exits_2(self, suite, capsys):
        argv = ["verify", "--seed", "-1"] + (["--suite", suite] if suite else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--seed must be a non-negative integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("suite", ["flows", "composition_law"])
    def test_negative_seed_env_exits_2(self, suite, capsys, monkeypatch):
        monkeypatch.setenv("RECIPGEO_SEED", "-7")
        assert main(["verify", "--suite", suite]) == 2
        assert "RECIPGEO_SEED must be a non-negative integer" in capsys.readouterr().err

    def test_perturbation_fails(self, tmp_path):
        code = main([
            "verify", "--suite", "christoffel_oracle", "--perturb", "1e-3",
            "--output", str(tmp_path / "p.txt"),
        ])
        assert code == 1

    def test_residual_suite_checks_terminations(self, monkeypatch):
        # reference run 1 must end on the singular set: the same run
        # reported as a step underflow fails the suite
        integrate = geodesics.integrate_geodesic
        runs = []

        def underflowing(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            runs.append(traj)
            if len(runs) == 1:
                traj.termination = TerminationReason.STEP_UNDERFLOW
            return traj

        monkeypatch.setattr(geodesics, "integrate_geodesic", underflowing)
        result = verify.suite_residual()
        assert len(runs) == 2
        assert not result.passed
        assert result.note == "step_underflow;span_complete"

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2


class TestFisher:
    def test_report(self, capsys):
        assert main(["fisher", "--alpha", "0.5,0.5", "--point", "0,0"]) == 0
        table = kv_table(capsys)
        assert_close(float(table["I[0][0]"]), 0.25, 1e-14)
        assert_close(float(table["m"]), 0.0, 1e-15)
        assert_close(float(table["m_prime"]), 1.0, 1e-15)
        assert float(table["hessian_dev"]) <= 1e-12


class TestJson:
    @pytest.mark.parametrize("table", [
        {"x": np.array([0.1, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 1.0 / 3.0]),
         "flags": np.array([0, 7, -2, 3, 1, 0, 4, 6]),
         "value": [None, True, False, "G^x_xy", np.float64(math.nan), np.int64(-3), 2, [1.5, math.inf]]},
        {"tau": np.array([], dtype=float), "S": np.array([], dtype=float)},
        {},
    ], ids=["mixed", "no-rows", "no-columns"])
    def test_column_writer_matches_json_module(self, capsys, table):
        # the rows block is written from the columns; its bytes are those of
        # the json module on the whole document
        class Args:
            format, output = "json", None

        meta = {"alpha": [0.5, math.nan], "termination": "span"}
        _emit(Args, table, meta)
        cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
        doc = {"meta": {"version": __version__, **meta}, "columns": list(table), "rows": list(zip(*cols))}
        want = json.dumps(_json_safe(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert capsys.readouterr().out == want

    def test_json_safe_nested(self):
        value = {"k": [math.inf, -math.inf, math.nan, np.float64(0.5), np.int64(7),
                       True, None, "text"]}
        out = _json_safe(value)
        assert out == {"k": [None, None, None, 0.5, 7, True, None, "text"]}
        assert [type(v) for v in out["k"][3:6]] == [float, int, bool]

    @pytest.mark.parametrize("argv, code", [
        (["eval", "--alpha", "1", "--point", "2"], 0),
        (["hessian", "--chart", "ratio", "--point", "1,1", "--alpha", "0.5,0.5"], 0),
        (["christoffel", "--alpha", "0.5,0.5", "--point", "2,1.5"], 0),
        (["ricci", "--alpha", "0.5,0.5", "--Z", "4"], 0),
        (["geodesic", "--alpha", f"{1/3},{1/2}", "--state", "4,2,-1,1",
          "--span", "0,8", "--samples", "16"], 0),
        (["flow", "--alpha", "0.5,0.5", "--point", "1.2,0.8", "--sign", "ascent",
          "--span", "0,5", "--samples", "8"], 3),
        (["locus", "--alpha", f"{1/3},{1/2}", "--grid", "21"], 0),
        (["fisher", "--alpha", "0.5,0.5", "--point", "0.4,0.1"], 0),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_strict_json_output(self, capsys, argv, code):
        assert main(argv + ["--format", "json"]) == code
        doc = strict_loads(capsys.readouterr().out)
        assert set(doc) == {"meta", "columns", "rows"}
        assert all(len(row) == len(doc["columns"]) for row in doc["rows"])
