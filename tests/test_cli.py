import json
import math
import warnings

import numpy as np
import pytest

from recipgeo import SingularContext, lc_christoffel_st, lc_christoffel_xy
from recipgeo.cli import _json_safe, main

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
            ctx = SingularContext.from_xy(a, b, *p)
            assert float(table.pop("Z")) == ctx.Z
            assert float(table.pop("Delta")) == ctx.Delta
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

    def test_perturbation_fails(self, tmp_path):
        code = main([
            "verify", "--suite", "christoffel_oracle", "--perturb", "1e-3",
            "--output", str(tmp_path / "p.txt"),
        ])
        assert code == 1

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
