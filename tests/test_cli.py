import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicsim import channel, cli, validate
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


_FIELDS = ("q_field", "q_momentum", "p_field", "p_momentum")


def _scaled_table(fg, sigma):
    """One row per grid point: each mode's four weights, scaled as in the CSV."""
    d = fg.dimension
    scales = (sigma ** ((d + 1) / 2.0), sigma ** ((d - 1) / 2.0)) * 2
    return np.column_stack([scale * getattr(fg, name)[row].ravel()
                            for row in range(len(fg.mode_indices))
                            for name, scale in zip(_FIELDS, scales)])


def per_value_csv(fg, sigma):
    """The text `_write_grid_csv` must write, formatted one value at a time."""
    d = fg.dimension
    names = ("x", "y", "z")[:d]
    varying = [k for k, a in enumerate(fg.spec.axes) if isinstance(a, GridAxis)]
    s_field, s_mom = sigma ** ((d + 1) / 2.0), sigma ** ((d - 1) / 2.0)
    cols = [f"{n}_{m + 1}" for m in fg.mode_indices for n in ("q_field", "q_mom", "p_field", "p_mom")]
    lines = [f"# t = {fg.t:.17g}, dimension = {d}"]
    lines += [f"# fixed axis {names[k]} = {a:.17g}"
              for k, a in enumerate(fg.spec.axes) if k not in varying]
    lines += [
        "# q_* weight the field (q_field) and conjugate momentum (q_mom) in the",
        "# first quadrature of each mode; p_* do the same for the second.",
        f"# dimensionless scaling: *_field columns carry sigma^((d+1)/2) = {s_field:.17g},",
        f"# *_mom columns carry sigma^((d-1)/2) = {s_mom:.17g} (sigma = {sigma:.17g})",
        "# " + ",".join([names[k] for k in varying] + cols),
    ]
    pts = fg.spec.points()[:, varying]
    table = _scaled_table(fg, sigma)
    for r in range(len(pts)):
        lines.append(",".join(f"{x:.17g}" for x in list(pts[r]) + list(table[r])))
    return "\n".join(lines) + "\n"


def _data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


_AWKWARD = np.array([-0.0, 5e-324, 1e300, 0.1, 2.0, -1.0 / 3.0])


def _field_grid(d, axes, n_modes, values):
    """A FieldGrid whose four arrays are ``values(shape)`` each."""
    spec = GridSpec(axes=tuple(axes))
    shape = (n_modes,) + spec.shape
    mode_indices = tuple(range(0, 2 * n_modes, 2))
    return FieldGrid(d, 2.5, spec, mode_indices, *(values(shape) for _ in range(4)))


def _awkward_case():
    # awkward values, a fixed axis and more rows than one formatting block
    rng = np.random.default_rng(5)
    return _field_grid(3, (GridAxis(-1.0, 1.0, 0.025), GridAxis(0.0, 1.5, 0.025), 0.5), 2,
                       lambda shape: rng.choice(_AWKWARD, size=shape))


def _one_varying_case():
    rng = np.random.default_rng(6)
    return _field_grid(3, (0.5, GridAxis(-3.0, 3.0, 0.001), -0.25), 1,
                       lambda shape: rng.choice(_AWKWARD, size=shape))


def _three_varying_case():
    rng = np.random.default_rng(7)
    return _field_grid(3, (GridAxis(-1.0, 1.0, 0.1),) * 3, 2,
                       lambda shape: rng.choice(_AWKWARD, size=shape))


def _lattice_case():
    # values depend on the exact squared radius about the centre point, so
    # mirror points carry identical rows, many of them in different blocks
    i, j = np.meshgrid(np.arange(-40, 41), np.arange(-40, 41), indexing="ij")
    r2 = (i * i + j * j).astype(float)
    phase = iter(np.linspace(0.1, 1.7, 8))
    return _field_grid(2, (GridAxis(-4.0, 4.0, 0.1), GridAxis(-4.0, 4.0, 0.1)), 2,
                       lambda shape: np.stack([np.cos(0.37 * r2 + next(phase))
                                               for _ in range(shape[0])]))


def _signed_zero_case():
    # rows differ only by the sign of one zero: they must stay apart
    fg = _field_grid(2, (GridAxis(0.0, 5.0, 0.001), 1.0), 1, np.zeros)
    fg.q_momentum[0, ::3] = -0.0
    return fg


def _all_distinct_case():
    rng = np.random.default_rng(8)
    return _field_grid(2, (GridAxis(-2.0, 2.0, 0.05), GridAxis(-1.0, 1.0, 0.025)), 3,
                       lambda shape: rng.standard_normal(shape))


_CSV_CASES = {
    "awkward": _awkward_case,
    "one_varying": _one_varying_case,
    "three_varying": _three_varying_case,
    "lattice": _lattice_case,
    "signed_zero": _signed_zero_case,
    "all_distinct": _all_distinct_case,
}


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

    def test_each_call_sees_only_its_own_flags(self, tmp_path):
        # the parser is shared between calls; the parsed settings are not
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["capacity", "--dim", "2", "--preset", "table1", "--log-base", "e",
                     "--search-tol", "1e-6", "--out", str(first)]) == 0
        assert main(["capacity", "--preset", "table1", "--out", str(second)]) == 0
        a, b = (json.loads(p.read_text()) for p in (first, second))
        assert (a["dimension"], a["log_base"], a["search_tol"]) == (2, "e", 1e-6)
        assert (b["dimension"], b["log_base"], b["search_tol"]) == (3, "2", 1e-10)

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

    def test_four_receivers_print_every_subset(self, tmp_path, capsys):
        shells = ((0.0, 0.9), (1.1, 2.9), (3.1, 4.0), (4.1, 5.0))
        bobs = [{"kind": "hard_shell", "r_inner": r, "r_outer": rr, "center": [0, 0, 0],
                 "t": 2.0, "coupling": 0.2} for r, rr in shells]
        alice = {"kind": "hard_shell", "r_inner": 0.0, "r_outer": 1.0, "center": [0, 0, 0],
                 "t": 0.0, "coupling": 1.0}
        cfg_path = tmp_path / "four.json"
        cfg_path.write_text(json.dumps({"dimension": 3, "scenario": {"alice": alice, "bobs": bobs}}))
        out = tmp_path / "four_out.json"
        assert main(["capacity", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        labels = ["B1", "B2", "B3", "B4", "B1B2", "B2B3", "B3B4", "B1B3", "B2B4", "B1B4",
                  "B1B2B3", "B2B3B4", "B1B2B4", "B1B3B4", "B1B2B3B4"]
        assert [line.split(" = ")[0] for line in lines[:-1]] == [f"C_{s}" for s in labels]
        assert lines[-1] == f"wrote {out}"
        report = json.loads(out.read_text())
        assert sorted(report["capacities"]) == sorted(labels)
        assert report["scenario"]["geometry"] == ["inside", "straddling", "outside", "outside"]

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

    # the awkward case keeps bare sigma ids, so its test ids stay stable
    @pytest.mark.parametrize("sigma, case", [
        pytest.param(sigma, case, id=str(sigma) if case == "awkward" else f"{sigma}-{case}")
        for case in _CSV_CASES for sigma in (1.0, 0.3)])
    def test_csv_bytes_match_per_value_format(self, tmp_path, sigma, case):
        fg = _CSV_CASES[case]()
        assert int(np.prod(fg.spec.shape)) > cli._CSV_BLOCK_ROWS
        out = tmp_path / "grid.csv"
        cli._write_grid_csv(str(out), fg, sigma)
        text = out.read_text()
        assert text == per_value_csv(fg, sigma)
        if case == "awkward" and sigma == 1.0:
            assert all(v in text for v in (",-0,", ",4.9406564584124654e-324,", ",1.0000000000000001e+300,", ",2,"))
        if case == "signed_zero":
            assert text.count(",0,-0,0,0\n") == 1667 and text.count(",0,0,0,0\n") == 3334
        if case == "lattice":  # mirror points repeat rows across the block boundary
            weights = [row.split(",", 2)[2] for row in _data_rows(text)]
            assert set(weights[: cli._CSV_BLOCK_ROWS]) & set(weights[cli._CSV_BLOCK_ROWS :])

    def test_csv_formats_each_distinct_row_and_axis_value_once(self, tmp_path, monkeypatch):
        fg = _CSV_CASES["lattice"]()
        formatted = []

        def counting(values):
            formatted.append(values.copy())
            return fmt_rows(values)

        fmt_rows = cli._fmt_rows
        monkeypatch.setattr(cli, "_fmt_rows", counting)
        out = tmp_path / "grid.csv"
        cli._write_grid_csv(str(out), fg, 0.5)
        assert out.read_text() == per_value_csv(fg, 0.5)

        axes = [a for a in fg.spec.axes if isinstance(a, GridAxis)]
        table = _scaled_table(fg, 0.5)
        distinct = len(np.unique(table.view(np.uint64), axis=0))
        assert distinct < len(table) / 4  # the lattice repeats rows
        width = table.shape[1]
        assert sum(len(v) for v in formatted if v.shape[1] == 1) == sum(len(a) for a in axes)
        assert sum(len(v) for v in formatted if v.shape[1] == width) == distinct
        rows = np.concatenate([v for v in formatted if v.shape[1] == width])
        assert len(np.unique(rows.view(np.uint64), axis=0)) == distinct

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

    @pytest.mark.parametrize("out", ("f.csv", "f"))
    def test_default_times_write_one_file_each_named_after_out(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--dim", "3", "--preset", "single",
                     "--grid", "x=0:1:0.5,y=0,z=0", "--out", out]) == 0
        stem, dot, ext = out.partition(".")
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{stem}_t{t}{dot}{ext}" for t in (0, 2, 4)]

    def test_sigma_scaling_documented_and_applied(self, tmp_path):
        out = tmp_path / "scaled.csv"
        assert main(["evolve", "--dim", "3", "--preset", "single", "--t", "0",
                     "--grid", "x=0:0.1:0.1,y=0,z=0", "--out", str(out)]) == 0
        text = out.read_text()
        assert "sigma^((d+1)/2)" in text
        cols, data = read_grid_csv(out)
        # scaled field weight at the center is 1/sqrt(2 pi)
        assert data[0, 1] == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-9)


_POOL = (0.0, -0.0, 1.0, 0.1, -2.5, 5e-324, np.nan, np.inf)


@st.composite
def _small_field_grids(draw):
    """A FieldGrid of at most 125 points whose values come from a pool of
    one to three (so rows repeat) or from random bit patterns, with its sigma."""
    d = draw(st.sampled_from((2, 3)))
    varying = draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any))
    axes = tuple(
        GridAxis(draw(st.sampled_from((-1.0, 0.0, 0.3))), 1.0, draw(st.sampled_from((0.25, 0.4, 0.7))))
        if v else draw(st.sampled_from((0.0, -0.5, 1e-7)))
        for v in varying)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.one_of(st.none(), st.lists(st.sampled_from(_POOL), min_size=1, max_size=3)))

    def values(shape):
        if pool is not None:
            return rng.choice(pool, size=shape)
        return rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False).view(np.float64)

    fg = _field_grid(d, axes, draw(st.integers(1, 3)), values)
    return fg, draw(st.sampled_from((1.0, 0.3, 0.2)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_small_field_grids(), block=st.integers(1, 9))
def test_csv_bytes_match_per_value_format_property(case, block):
    fg, sigma = case
    # random bit patterns hold signalling NaNs and values that overflow when scaled
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CSV_BLOCK_ROWS", block), \
            np.errstate(over="ignore", invalid="ignore"):
        path = os.path.join(tmp, "grid.csv")
        cli._write_grid_csv(path, fg, sigma)
        with open(path) as fh:
            assert fh.read() == per_value_csv(fg, sigma)


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
    (["capacity"], b"\xff\xfe", "not valid JSON"),
    (["capacity"], "[" * 100000 + "]" * 100000, "not valid JSON"),
    # over-long integers are refused by the parser or, failing that, as a dimension
    (["capacity"], '{"dimension": 1' + "0" * 5000 + "}", "config"),
    (["capacity"], {"scenario": {"bobs": [_SHELL] * 3}}, "'alice'"),
    (_EVOLVE, {"scenario": {"generators": [{k: v for k, v in _SHELL.items() if k != "r_outer"}]}},
     "'r_outer'"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "sigma": "x"}]}}, "'sigma'"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "center": 5}]}}, "'center'"),
    (["capacity"], {"scenario": {"alice": 3, "bobs": [_SHELL] * 3}}, "'alice'"),
    (["capacity"], {"scenario": {"alice": _SHELL, "bobs": 5}}, "'bobs'"),
    (["capacity"], {"scenario": {"alice": _SHELL, "bobs": []}}, "no receiver detectors"),
    (["capacity"], {"scenario": {"alice": _SHELL, "bobs": [_SHELL] * 9}},
     "9 receivers: the 2^9 x 3^9 sign table exceeds"),
    (_EVOLVE, {"scenario": {"generators": 5}}, "'generators'"),
    (_EVOLVE, {"scenario": {"generators": [5]}}, "'generators'"),
    (["evolve", "--preset", "single", "--t", "1"], {"grid": 5}, "'grid'"),
    (["capacity", "--preset", "table1"], {"out": 5}, "'out'"),
    (["capacity", "--preset", "table1"], {"dimension": 2.5}, "'dimension'"),
    (_SINGLE, {"threads": 1.9}, "'threads'"),
    (_SINGLE[:3] + _SINGLE[5:], {"t": True}, "'t'"),
    (_SINGLE[:3] + _SINGLE[5:], {"t": []}, "no snapshot time"),
    (_EVOLVE[:1] + _EVOLVE[3:], {"scenario": {"generators": [_GAUSS], "times": []}},
     "no snapshot time"),
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
    # t - coupling_time = 1e308 - (-1e308) overflows; the d=3 closed form would write NaN rows
    (["evolve", "--t", "1e308", "--grid", "x=0:1:0.5,y=0,z=0"],
     {"scenario": {"generators": [{**_GAUSS, "t": -1e308}]}},
     "mode function at t=1e+308, coupling_time=-1e+308: the time difference overflows"),
    # the mode recursion's degeneracy threshold is a constant, not a setting
    (_EVOLVE, '{"degeneracy_eps": NaN, "scenario": {"generators": [%s, %s]}}'
     % (json.dumps(_GAUSS), json.dumps(_GAUSS)), "unknown config keys: ['degeneracy_eps']"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "amplitude": 0}]}},
     "no mode to sample: every generator was skipped"),
    # a config carries only the keys its command reads
    (["capacity", "--preset", "table1"], {"threads": -4, "t": "soon", "grid": "x=0:1:0.5"},
     "unknown config keys: ['grid', 't', 'threads']"),
    (_SINGLE, {"search_tol": -1, "log_base": "ten"}, "unknown config keys: ['log_base', 'search_tol']"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "r_inner": "bogus"}]}},
     "unknown generator keys: ['r_inner']"),
    (["capacity"], "[1, 2]", "config file must contain a JSON object"),
    (["evolve", "--preset", "single", "--t", "1", "--grid", "x=0:1:0.5,y=0"], None,
     "grid needs 3 comma-separated axes, got 2"),
    (["evolve", "--preset", "single", "--t", "1", "--grid", "x=0:1:0.5,0,z=0"], None,
     "grid axis '0' must look like axis=spec"),
    (["evolve", "--preset", "single", "--t", "1", "--grid", "x=0:1,y=0,z=0"], None,
     "grid axis spec '0:1' must be value or lo:hi:step"),
    (["evolve", "--preset", "single", "--t", "1", "--grid", "x=0:1:0.5,y=inf,z=0"], None,
     "grid fixed axis value inf is not finite"),
    (["capacity"], None, "no scenario: pass --preset or a config scenario"),
    (["capacity"], {"scenario": "table1"}, "inline scenario must be an object"),
    (_EVOLVE, {"scenario": {"generators": []}}, "inline scenario has no generators"),
    (_EVOLVE[:3], {"scenario": {"generators": [_GAUSS]}}, "no grid: pass --grid"),
    # names that are not strings are refused before any lookup by name
    (["capacity"], {"preset": ["single"]}, "config key 'preset' must be a JSON str"),
    (["capacity"], {"preset": {"a": 1}}, "config key 'preset' must be a JSON str"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "kind": ["gaussian"]}]}},
     "generator key 'kind' must be a JSON str"),
    (_EVOLVE, {"scenario": {"generators": [{**_GAUSS, "kind": "disc"}]}}, "unknown generator kind 'disc'"),
], ids=["grid-value", "grid-inf", "config-json", "config-not-utf8", "config-deep", "config-long-int",
        "no-alice", "no-r-outer", "sigma-text", "center-number", "alice-number", "bobs-number", "bobs-empty", "bobs-over-budget",
        "generators-number",
        "generator-number", "grid-number", "out-number", "dimension-fraction",
        "threads-fraction", "t-boolean", "t-empty", "times-empty", "coupling-boolean",
        "dimension-inf", "threads-inf",
        "search-tol-zero", "search-tol-negative", "search-tol-nan", "tol-zero", "tol-negative",
        "tol-nan", "evolve-tol-nan", "grid-too-large", "centres-overflow",
        "time-overflow", "degeneracy-eps", "no-mode",
        "capacity-evolve-keys", "evolve-capacity-keys", "gaussian-shell-key", "config-not-object",
        "grid-axis-count", "grid-axis-no-name", "grid-axis-two-fields", "grid-fixed-inf",
        "no-scenario", "scenario-name", "generators-empty", "no-grid",
        "preset-list", "preset-object", "kind-list", "kind-unknown"])
def test_malformed_input_is_one_line_error(tmp_path, capsys, argv, config, named):
    argv = argv + ["--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err
    assert not list(tmp_path.glob("out*"))  # nothing written


@pytest.mark.parametrize("value", (3, 3.0, "3"))
def test_whole_number_settings_accepted(tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": value, "threads": value}))
    assert main(_SINGLE + ["--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    assert read_grid_csv(tmp_path / "out.csv")[1].shape == (3, 5)  # x and one mode


class TestValidateCommand:
    def test_only_filter(self, capsys):
        assert main(["validate", "--only", "closed-form,ccr"]) == 0
        out = capsys.readouterr().out
        assert "closed-form d=3" in out
        assert "ccr/purity d=3" in out
        assert "huygens" not in out

    def test_unknown_check_rejected(self, capsys):
        assert main(["validate", "--only", "nope"]) == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_lines_print_the_comparison_each_check_makes(self, capsys):
        assert main(["validate", "--only", "superadditivity,huygens"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name, bound in (("superadditivity d=3", "> 0.0e+00"), ("superadditivity d=2", "> 0.0e+00"),
                            ("strong-huygens d=3", "<= 1.0e-08"), ("huygens-violation d=2", ">= 1.0e-03")):
            line = next(line for line in lines if f"  {name}: " in line)
            assert line.startswith(f"PASS  {name}: residual ") and f" ({bound})  [" in line, line

    def test_table1_checks_build_moments_once_per_dimension(self, monkeypatch):
        # every table1 check reads the one capacity table of its dimension
        real, calls = channel.scenario_moments, []
        for mod in (channel, validate):  # wherever the name is bound
            monkeypatch.setattr(mod, "scenario_moments",
                                lambda *a, **k: calls.append(a) or real(*a, **k), raising=False)
        validate._table1.cache_clear()
        results = validate.run_checks(["microcausality", "normalization", "no-signaling",
                                       "superadditivity", "huygens"])
        assert len(results) == 9 and all(r.passed for r in results)
        assert len(calls) == 2


def test_parser_is_built_once(monkeypatch):
    assert main(["validate", "--only", "closed-form"]) == 0  # builds it, if no earlier call did
    built = []
    monkeypatch.setattr(cli.argparse, "ArgumentParser", lambda *a, **k: built.append(a))
    assert main(["validate", "--only", "closed-form"]) == 0
    assert built == []


def test_command_is_looked_up_when_it_runs(monkeypatch):
    # a tracer that wraps `cmd_*` after the first call still sees every later one
    assert main(["validate", "--only", "closed-form"]) == 0
    monkeypatch.setattr(cli, "cmd_validate", lambda args: 7)
    assert main(["validate", "--only", "closed-form"]) == 7
