import json

import numpy as np
import pytest

from qicsim import cli
from qicsim.cli import main
from qicsim.qic import FieldGrid, GridAxis, GridSpec

TABLE1_D3 = (0.0, 3.39083e-5, 0.0, 3.45126e-5, 3.73605e-5, 0.0, 3.79689e-5)
SUBSETS = ("B1", "B2", "B3", "B1B2", "B2B3", "B1B3", "B1B2B3")


def read_grid_csv(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                header = line[1:].strip()
                continue
            rows.append([float(v) for v in line.split(",")])
    return header.split(","), np.array(rows)


class TestCapacityCommand:
    def test_table1_d3_report(self, tmp_path):
        out = tmp_path / "cap.json"
        assert main(["capacity", "--dim", "3", "--preset", "table1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["dimension"] == 3
        assert report["log_base"] == "2"
        assert report["scenario"]["geometry"] == ["inside", "straddling", "outside"]
        assert report["pairing_error_bound"] < 1e-7
        for label, ref in zip(SUBSETS, TABLE1_D3):
            got = report["capacities"][label]["capacity"]
            if ref == 0.0:
                assert got <= 1e-8
            else:
                assert abs(got - ref) <= 5e-3 * ref

    def test_search_tol_below_rounding_level_finishes(self, tmp_path):
        # the prior search ends where its bracket stops shrinking
        out = tmp_path / "cap.json"
        assert main(["capacity", "--dim", "3", "--preset", "table1", "--search-tol", "1e-16",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["search_tol"] == 1e-16
        for label, ref in zip(SUBSETS, TABLE1_D3):
            assert abs(report["capacities"][label]["capacity"] - ref) <= max(5e-3 * ref, 1e-8)

    def test_log_base_disambiguation(self, tmp_path):
        ref_b2 = 0.00872886
        matches = []
        for base in ("2", "e"):
            out = tmp_path / f"cap_{base}.json"
            assert main(["capacity", "--dim", "2", "--preset", "table1",
                         "--log-base", base, "--out", str(out)]) == 0
            got = json.loads(out.read_text())["capacities"]["B2"]["capacity"]
            matches.append(abs(got - ref_b2) <= 5e-3 * ref_b2)
        assert matches == [True, False]

    def test_wrong_preset_kind(self, tmp_path, capsys):
        assert main(["capacity", "--dim", "3", "--preset", "single"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--dim", "3", "--preset", "nope"])
        assert exc.value.code == 2

    def test_inline_scenario_config(self, tmp_path):
        cfg = {
            "dimension": 3,
            "scenario": {
                "alice": {"kind": "hard_shell", "r_inner": 0.0, "r_outer": 1.0,
                          "center": [0, 0, 0], "t": 0.0, "coupling": 1.0},
                "bobs": [
                    {"kind": "hard_shell", "r_inner": 0.0, "r_outer": 0.9,
                     "center": [0, 0, 0], "t": 2.0, "coupling": 0.2},
                    {"kind": "hard_shell", "r_inner": 1.1, "r_outer": 2.9,
                     "center": [0, 0, 0], "t": 2.0, "coupling": 0.2},
                    {"kind": "hard_shell", "r_inner": 3.1, "r_outer": 4.0,
                     "center": [0, 0, 0], "t": 2.0, "coupling": 0.2},
                ],
            },
            "out": str(tmp_path / "inline.json"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["capacity", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "inline.json").read_text())
        assert abs(report["capacities"]["B2"]["capacity"] - TABLE1_D3[1]) <= 5e-3 * TABLE1_D3[1]

    def test_non_finite_time_rejected(self, tmp_path, capsys):
        shells = ((0.0, 1.0), (0.0, 0.9), (1.1, 2.9), (3.1, 4.0))
        alice, *bobs = ({"kind": "hard_shell", "r_inner": r, "r_outer": rr,
                         "center": [0, 0, 0], "t": 2.0} for r, rr in shells)
        scenario = {"alice": {**alice, "t": -float("inf")}, "bobs": bobs}
        cfg_path = tmp_path / "inf.json"
        cfg_path.write_text(json.dumps({"dimension": 3, "scenario": scenario}))
        assert "-Infinity" in cfg_path.read_text()
        assert main(["capacity", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"dimension": 3, "bogus": 1}))
        assert main(["capacity", "--config", str(cfg_path)]) == 2
        assert "bogus" in capsys.readouterr().err


class TestEvolveCommand:
    def test_single_d3_ridge(self, tmp_path):
        out = tmp_path / "line.csv"
        assert main(["evolve", "--dim", "3", "--preset", "single", "--t", "4",
                     "--grid", "x=-6:6:0.05,y=0,z=0", "--out", str(out)]) == 0
        cols, data = read_grid_csv(out)
        assert cols == ["x", "q_field_1", "q_mom_1", "p_field_1", "p_mom_1"]
        xs = data[:, 0]
        ridge = abs(xs[np.abs(data[:, 2]).argmax()])
        assert abs(ridge - 4.0) <= 0.4

    def test_shockwave_d2_has_12_weight_columns(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert main(["shockwave", "--dim", "2", "--t", "8",
                     "--grid", "x=0:16:0.5,y=0", "--out", str(out)]) == 0
        cols, data = read_grid_csv(out)
        assert len(cols) == 1 + 12
        assert np.all(np.isfinite(data))

    def test_zero_size_grid_is_usage_error(self, tmp_path, capsys):
        code = main(["evolve", "--dim", "3", "--preset", "single", "--t", "4",
                     "--grid", "x=5:4:0.1,y=0,z=0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_grid_axis_name(self, tmp_path):
        code = main(["evolve", "--dim", "3", "--preset", "single", "--t", "4",
                     "--grid", "x=-1:1:0.5,q=0,z=0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        args = ["evolve", "--dim", "2", "--preset", "single", "--t", "2",
                "--grid", "x=-3:3:0.25,y=-1:1:0.5"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert main(args + ["--out", str(c), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_threads_below_one_is_usage_error(self, tmp_path, capsys):
        code = main(["evolve", "--dim", "3", "--preset", "single", "--t", "2",
                     "--grid", "x=-1:1:0.5,y=0,z=0", "--threads", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "threads" in capsys.readouterr().err

    def test_near_edge_shell_grid_evaluates(self, tmp_path):
        # the grid points at r = sqrt(2.5) sit 0.019 inside a hard-shell light-cone edge
        cfg = tmp_path / "shell.json"
        cfg.write_text(json.dumps({"dimension": 2, "scenario": {"generators": [
            {"kind": "hard_shell", "r_inner": 0.5, "r_outer": 1.25, "center": [0, 0], "t": 0}]}}))
        code = main(["evolve", "--config", str(cfg), "--t", "2.1",
                     "--grid", "x=-3:3:0.5,y=-1:1:0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 0
        data = read_grid_csv(tmp_path / "x.csv")[1]
        assert data.shape == (65, 6) and np.isfinite(data).all()

    def test_light_cone_centre_error_names_radius(self, tmp_path, capsys):
        # at t = r_outer the shell's centre lies on a light-cone edge, where dI/dt diverges
        cfg = tmp_path / "shell.json"
        cfg.write_text(json.dumps({"dimension": 2, "scenario": {"generators": [
            {"kind": "hard_shell", "r_inner": 0.5, "r_outer": 1.25, "center": [0, 0], "t": 0}]}}))
        code = main(["evolve", "--config", str(cfg), "--t", "1.25",
                     "--grid", "x=-1:1:0.5,y=0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dI/dt at r=0.0, t=1.25, coupling_time=0.0: diverges on a light-cone edge" in err

    @pytest.mark.parametrize("sigma", (1.0, 0.3))
    def test_csv_bytes_match_per_value_format(self, tmp_path, sigma):
        # awkward values, a fixed axis and more rows than one formatting block
        spec = GridSpec(axes=(GridAxis(-1.0, 1.0, 0.025), GridAxis(0.0, 1.5, 0.025), 0.5))
        npts = int(np.prod(spec.shape))
        assert npts > cli._CSV_BLOCK_ROWS
        rng = np.random.default_rng(5)
        awkward = np.array([-0.0, 5e-324, 1e300, 0.1, 2.0, -1.0 / 3.0])
        fields = [rng.choice(awkward, size=(2,) + spec.shape) for _ in range(4)]
        fg = FieldGrid(3, 2.5, spec, (0, 2), *fields)
        out = tmp_path / "grid.csv"
        cli._write_grid_csv(str(out), fg, sigma)

        s_field, s_mom = sigma**2, sigma
        cols = [f"{n}_{i}" for i in (1, 3) for n in ("q_field", "q_mom", "p_field", "p_mom")]
        lines = [
            "# t = 2.5, dimension = 3",
            "# fixed axis z = 0.5",
            "# q_* weight the field (q_field) and conjugate momentum (q_mom) in the",
            "# first quadrature of each mode; p_* do the same for the second.",
            f"# dimensionless scaling: *_field columns carry sigma^((d+1)/2) = {s_field:.17g},",
            f"# *_mom columns carry sigma^((d-1)/2) = {s_mom:.17g} (sigma = {sigma:.17g})",
            "# " + ",".join(["x", "y"] + cols),
        ]
        pts = spec.points()
        columns = []
        for row in range(2):
            for arr, scale in zip(fields, (s_field, s_mom, s_field, s_mom)):
                columns.append(scale * arr[row].ravel())
        for r in range(npts):
            lines.append(",".join(f"{x:.17g}" for x in [pts[r, 0], pts[r, 1]]
                                  + [c[r] for c in columns]))
        text = out.read_text()
        assert text == "\n".join(lines) + "\n"
        if sigma == 1.0:
            assert all(v in text for v in (",-0,", ",4.9406564584124654e-324,", ",1.0000000000000001e+300,", ",2,"))

    def test_default_times_write_one_file_each(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--dim", "3", "--preset", "single",
                     "--grid", "x=0:1:0.5,y=0,z=0"]) == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "evolve_single_d3_t0.csv",
            "evolve_single_d3_t2.csv",
            "evolve_single_d3_t4.csv",
        ]

    def test_sigma_scaling_documented_and_applied(self, tmp_path):
        out = tmp_path / "scaled.csv"
        assert main(["evolve", "--dim", "3", "--preset", "single", "--t", "0",
                     "--grid", "x=0:0.1:0.1,y=0,z=0", "--out", str(out)]) == 0
        text = out.read_text()
        assert "sigma^((d+1)/2)" in text
        cols, data = read_grid_csv(out)
        # scaled field weight at the center is 1/sqrt(2 pi)
        assert data[0, 1] == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-9)


_GAUSS = {"kind": "gaussian", "sigma": 1.0, "center": [0, 0, 0], "t": 0}
_SHELL = {"kind": "hard_shell", "r_inner": 0.5, "r_outer": 1.0, "center": [0, 0, 0], "t": 0}
_EVOLVE = ["evolve", "--t", "1", "--grid", "x=0:1:0.5,y=0,z=0"]
_SINGLE = ["evolve", "--preset", "single", "--t", "1", "--grid", "x=0:1:0.5,y=0,z=0"]


@pytest.mark.parametrize("argv, config, named", [
    (["evolve", "--dim", "2", "--preset", "single", "--t", "1", "--grid", "x=a:1:0.5,y=0"],
     None, "'a'"),
    (["evolve", "--preset", "single", "--t", "1", "--grid", "x=0:inf:1,y=0,z=0"],
     None, "inf"),
    (["capacity"], '{"dimension": 3,', "not valid JSON"),
    (["capacity"], {"scenario": {"bobs": [_SHELL] * 3}}, "'alice'"),
    (_EVOLVE, {"scenario": {"generators": [{k: v for k, v in _SHELL.items() if k != "r_outer"}]}},
     "'r_outer'"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "sigma": "x"}]}}, "'sigma'"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "center": 5}]}}, "'center'"),
    (["capacity"], {"scenario": {"alice": 3, "bobs": [_SHELL] * 3}}, "'alice'"),
    (["capacity"], {"scenario": {"alice": _SHELL, "bobs": 5}}, "'bobs'"),
    (_EVOLVE, {"scenario": {"generators": 5}}, "'generators'"),
    (_EVOLVE, {"scenario": {"generators": [5]}}, "'generators'"),
    (["evolve", "--preset", "single", "--t", "1"], {"grid": 5}, "'grid'"),
    (["capacity", "--preset", "table1"], {"out": 5}, "'out'"),
    (["capacity", "--preset", "table1"], {"dimension": 2.5}, "'dimension'"),
    (_SINGLE, {"threads": 1.9}, "'threads'"),
    (_SINGLE[:3] + _SINGLE[5:], {"t": True}, "'t'"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "coupling": True}]}}, "'coupling'"),
    (["capacity", "--preset", "table1"], '{"dimension": Infinity}', "'dimension'"),
    (_SINGLE, '{"threads": Infinity}', "'threads'"),
    (["capacity", "--preset", "table1", "--search-tol", "0"], None, "'search_tol'"),
    (["capacity", "--preset", "table1", "--search-tol", "-1"], None, "'search_tol'"),
    (["capacity", "--preset", "table1", "--search-tol", "nan"], None, "'search_tol'"),
    (["capacity", "--preset", "table1", "--tol", "0"], None, "'tol'"),
    (["capacity", "--preset", "table1"], {"tol": -1}, "'tol'"),
    (["capacity", "--preset", "table1", "--tol", "nan"], None, "'tol'"),
    (["evolve", "--dim", "2", "--preset", "single", "--t", "2", "--tol", "nan"], None, "'tol'"),
    (["evolve", "--dim", "2", "--preset", "single", "--t", "2", "--grid", "x=0:1e9:1,y=0"],
     None, "1000000001 points"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "sigma": 0.2, "center": [1e308, 0, 0]},
                                           {**_GAUSS, "sigma": 0.2, "center": [-1e308, 0, 0]}]}},
     "pairing (0, 1): the distance between centres"),
], ids=["grid-value", "grid-inf", "config-json", "no-alice", "no-r-outer", "sigma-text",
        "center-number", "alice-number", "bobs-number", "generators-number",
        "generator-number", "grid-number", "out-number", "dimension-fraction",
        "threads-fraction", "t-boolean", "coupling-boolean", "dimension-inf", "threads-inf",
        "search-tol-zero", "search-tol-negative", "search-tol-nan", "tol-zero", "tol-negative",
        "tol-nan", "evolve-tol-nan", "grid-too-large", "centres-overflow"])
def test_malformed_input_is_one_line_error(tmp_path, capsys, argv, config, named):
    argv = argv + ["--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("value", (3, 3.0, "3"))
def test_whole_number_settings_accepted(tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": value, "threads": value}))
    assert main(_SINGLE + ["--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    assert read_grid_csv(tmp_path / "out.csv")[1].shape == (3, 5)  # x and one mode


class TestValidateCommand:
    def test_only_filter(self, capsys):
        assert main(["validate", "--only", "closed-form,involution"]) == 0
        out = capsys.readouterr().out
        assert "closed-form d=3" in out
        assert "f o f = -id" in out
        assert "huygens" not in out

    def test_unknown_check_rejected(self, capsys):
        assert main(["validate", "--only", "nope"]) == 2
        assert "unknown checks" in capsys.readouterr().err
