"""Command-line front end.

Commands
--------
capacity    channel capacities for a sender/receiver scenario (JSON report)
evolve      weighting-function grids of a mode set (CSV, one row per point)
shockwave   alias for ``evolve --preset shockwave``
validate    run the invariant suite and report pass/fail with residuals

A run is configured by an optional JSON config file (``--config``) whose
keys match the long flags; explicit flags override config values.  Unknown
config keys are rejected before any computation starts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channel import (
    capacity_table,
    make_channel_scenario,
    subset_label,
    SUBSET_ORDER,
)
from .errors import ConfigurationError, NumericConsistencyError, QuadratureError
from .qic import Generator, GridAxis, GridSpec, build_qic, weighting_grid
from .scenarios import PRESET_NAMES, preset, _serialize_generator
from .smearing import GAUSSIAN, HARD_SHELL, RadialSmearing
from .validate import run_checks

_CONFIG_KEYS = {
    "dimension", "scenario", "preset", "t", "grid", "log_base", "tol",
    "search_tol", "threads", "out", "degeneracy_eps",
}

_GEN_KEYS = {"kind", "sigma", "r_inner", "r_outer", "center", "t", "coupling", "amplitude"}


_CSV_BLOCK_ROWS = 4096


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _reject_unknown(obj: dict, allowed: set, context: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown {context} keys: {unknown}")


def _require(obj: dict, keys, context: str) -> None:
    for key in keys:
        if key not in obj:
            raise ConfigurationError(f"{context} missing {key!r}")


def _number(value, what: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what}: {value!r} is not a number") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config file must contain a JSON object")
    _reject_unknown(cfg, _CONFIG_KEYS, "config")
    return cfg


def _setting(args, cfg: dict, key: str, default=None, kind=None):
    """Flag, else config value, else ``default``; converted by ``kind``."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        val = cfg.get(key)
    if val is None:
        val = default
    return val if kind is None or val is None else _number(val, key, kind)


def _generator_from_spec(spec: dict, dimension: int) -> Generator:
    _reject_unknown(spec, _GEN_KEYS, "generator")
    _require(spec, ("kind", "center", "t"), "generator definition")
    kind = spec["kind"]
    shape = {GAUSSIAN: ("sigma",), HARD_SHELL: ("r_inner", "r_outer")}.get(kind)
    if shape is None:
        raise ConfigurationError(f"unknown generator kind {kind!r}")
    _require(spec, shape, f"{kind} generator")
    num = {key: _number(spec.get(key, 1.0), f"generator key {key!r}")
           for key in shape + ("t", "coupling", "amplitude")}
    center = tuple(_number(c, "generator key 'center'") for c in spec["center"])
    smearing = RadialSmearing(kind, dimension, center, amplitude=num["amplitude"],
                              **{key: num[key] for key in shape})
    return Generator(smearing=smearing, coupling_time=num["t"], coupling=num["coupling"])


def _parse_grid(text: str, dimension: int) -> GridSpec:
    names = ("x", "y", "z")[:dimension]
    parts = text.split(",")
    if len(parts) != dimension:
        raise ConfigurationError(
            f"grid needs {dimension} comma-separated axes, got {len(parts)}"
        )
    axes = []
    for want, part in zip(names, parts):
        if "=" not in part:
            raise ConfigurationError(f"grid axis {part!r} must look like axis=spec")
        name, spec_text = part.split("=", 1)
        if name.strip() != want:
            raise ConfigurationError(f"expected axis {want!r}, got {name.strip()!r}")
        fields = [_number(f, f"grid axis {want}") for f in spec_text.split(":")]
        if len(fields) == 1:
            axes.append(fields[0])
        elif len(fields) == 3:
            axes.append(GridAxis(*fields))
        else:
            raise ConfigurationError(f"grid axis spec {spec_text!r} must be value or lo:hi:step")
    return GridSpec(axes=tuple(axes))


def _resolve_scenario(args, cfg, expect_kind: str):
    dim = _setting(args, cfg, "dimension", 3, int)
    name = _setting(args, cfg, "preset")
    inline = cfg.get("scenario")
    if name is None and isinstance(inline, str):
        name = inline
        inline = None
    if name is not None:
        p = preset(name, dim)
        if p.kind != expect_kind:
            raise ConfigurationError(
                f"preset {name!r} is a {p.kind} scenario, not usable here"
            )
        return dim, p.payload, p
    if inline is None:
        raise ConfigurationError("no scenario: pass --preset or a config scenario")
    if not isinstance(inline, dict):
        raise ConfigurationError("inline scenario must be an object")
    if expect_kind == "channel":
        _reject_unknown(inline, {"alice", "bobs"}, "scenario")
        _require(inline, ("alice", "bobs"), "inline scenario")
        alice = _generator_from_spec(inline["alice"], dim)
        bobs = [_generator_from_spec(b, dim) for b in inline["bobs"]]
        return dim, make_channel_scenario(alice, bobs, dim), None
    _reject_unknown(inline, {"generators", "times"}, "scenario")
    _require(inline, ("generators",), "inline scenario")
    gens = [_generator_from_spec(g, dim) for g in inline["generators"]]
    if not gens:
        raise ConfigurationError("inline scenario has no generators")
    return dim, gens, None


def cmd_capacity(args) -> int:
    cfg = _load_config(args.config)
    dim, scenario, _ = _resolve_scenario(args, cfg, "channel")
    base = _setting(args, cfg, "log_base", "2")
    tol = _setting(args, cfg, "tol", 1e-10, float)
    search_tol = _setting(args, cfg, "search_tol", 1e-10, float)
    result = capacity_table(scenario, base=base, tol=tol, search_tol=search_tol)

    report = {
        "dimension": dim,
        "log_base": result.log_base,
        "search_tol": result.search_tol,
        "pairing_error_bound": result.moment_error_bound,
        "scenario": {
            "alice": _serialize_generator(scenario.alice),
            "bobs": [_serialize_generator(b) for b in scenario.bobs],
            "geometry": list(scenario.geometry),
        },
        "capacities": {
            subset_label(s): {
                "capacity": result.capacities[subset_label(s)],
                "optimal_prior": result.priors[subset_label(s)],
            }
            for s in SUBSET_ORDER
        },
    }
    out = _setting(args, cfg, "out", f"capacity_d{dim}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for s in SUBSET_ORDER:
        label = subset_label(s)
        print(f"C_{label} = {_fmt(result.capacities[label])} (q* = {result.priors[label]:.6f})")
    print(f"wrote {out}")
    return 0


def _sigma_scale(generators) -> float:
    for g in generators:
        if g.smearing.kind == GAUSSIAN:
            return g.smearing.sigma
    return 1.0


def cmd_evolve(args, forced_preset: str | None = None) -> int:
    cfg = _load_config(args.config)
    if forced_preset is not None and args.preset is None:
        args.preset = forced_preset
    dim, generators, pre = _resolve_scenario(args, cfg, "evolve")

    t_setting = _setting(args, cfg, "t")
    if t_setting is None and isinstance(cfg.get("scenario"), dict):
        t_setting = cfg["scenario"].get("times")
    if t_setting is None and pre is not None:
        times = list(pre.default_times)
    elif t_setting is None:
        raise ConfigurationError("no snapshot time: pass --t")
    else:
        times = [_number(t, "t") for t in np.atleast_1d(t_setting).tolist()]

    grid_setting = _setting(args, cfg, "grid")
    if grid_setting is not None:
        grid = _parse_grid(grid_setting, dim)
    elif pre is not None and pre.grid is not None:
        grid = pre.grid
    else:
        raise ConfigurationError("no grid: pass --grid")

    tol = _setting(args, cfg, "tol", 1e-10, float)
    threads = _setting(args, cfg, "threads", 1, int)
    eps = _setting(args, cfg, "degeneracy_eps", 1e-10, float)
    out_base = _setting(args, cfg, "out")

    modes = build_qic(generators, dim, degeneracy_eps=eps, tol=tol)
    sigma = _sigma_scale(generators)
    name = pre.name if pre is not None else "custom"
    for t in times:
        grid_data = weighting_grid(modes, None, t, grid, tol=tol, threads=threads)
        if out_base is None:
            out = f"evolve_{name}_d{dim}_t{_fmt(t)}.csv"
        elif len(times) > 1:
            stem, dot, ext = out_base.rpartition(".")
            out = f"{stem}_t{_fmt(t)}{dot}{ext}" if dot else f"{out_base}_t{_fmt(t)}"
        else:
            out = out_base
        _write_grid_csv(out, grid_data, sigma)
        print(f"wrote {out} ({int(np.prod(grid.shape))} points, {modes.n_modes} modes)")
    return 0


def _write_grid_csv(path: str, grid_data, sigma: float) -> None:
    d = grid_data.dimension
    names = ("x", "y", "z")[:d]
    varying = [n for n, a in zip(names, grid_data.spec.axes) if isinstance(a, GridAxis)]
    fixed = [(n, a) for n, a in zip(names, grid_data.spec.axes) if not isinstance(a, GridAxis)]
    s_field = sigma ** ((d + 1) / 2.0)
    s_mom = sigma ** ((d - 1) / 2.0)
    cols = []
    for m in grid_data.mode_indices:
        i = m + 1
        cols += [f"q_field_{i}", f"q_mom_{i}", f"p_field_{i}", f"p_mom_{i}"]
    var_idx = [k for k, a in enumerate(grid_data.spec.axes) if isinstance(a, GridAxis)]
    n_modes = len(grid_data.mode_indices)
    columns = [grid_data.spec.points()[:, var_idx]]
    for row in range(n_modes):
        columns += [
            s_field * grid_data.q_field[row].ravel(),
            s_mom * grid_data.q_momentum[row].ravel(),
            s_field * grid_data.p_field[row].ravel(),
            s_mom * grid_data.p_momentum[row].ravel(),
        ]
    table = np.column_stack(columns)
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"  # "%.17g" % x == _fmt(x)
    with open(path, "w") as fh:
        fh.write(f"# t = {_fmt(grid_data.t)}, dimension = {d}\n")
        for n, a in fixed:
            fh.write(f"# fixed axis {n} = {_fmt(float(a))}\n")
        fh.write(
            "# q_* weight the field (q_field) and conjugate momentum (q_mom) in the\n"
            "# first quadrature of each mode; p_* do the same for the second.\n"
        )
        fh.write(
            f"# dimensionless scaling: *_field columns carry sigma^((d+1)/2) = {_fmt(s_field)},\n"
            f"# *_mom columns carry sigma^((d-1)/2) = {_fmt(s_mom)} (sigma = {_fmt(sigma)})\n"
        )
        fh.write("# " + ",".join(list(varying) + cols) + "\n")
        # one formatting op per block of rows keeps the transient text small
        for r0 in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[r0 : r0 + _CSV_BLOCK_ROWS]
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def cmd_validate(args) -> int:
    only = args.only.split(",") if args.only else None
    results = run_checks(only)
    failures = 0
    for res in results:
        print(res.line())
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _add_common(p: argparse.ArgumentParser, with_grid: bool) -> None:
    p.add_argument("--dim", dest="dimension", type=int, choices=(2, 3), default=None)
    p.add_argument("--preset", choices=PRESET_NAMES, default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    p.add_argument("--out", default=None, help="output path")
    if with_grid:
        p.add_argument("--t", type=float, default=None, help="snapshot time")
        p.add_argument("--grid", default=None,
                       help='e.g. "x=-6:6:0.05,y=-6:6:0.05,z=0"')
        p.add_argument("--threads", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qicsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="channel capacities per receiver subset")
    _add_common(p_cap, with_grid=False)
    p_cap.add_argument("--log-base", dest="log_base", choices=("2", "e"), default=None)
    p_cap.add_argument("--search-tol", dest="search_tol", type=float, default=None)
    p_cap.set_defaults(func=cmd_capacity)

    p_ev = sub.add_parser("evolve", help="weighting-function grids over spacetime")
    _add_common(p_ev, with_grid=True)
    p_ev.set_defaults(func=cmd_evolve)

    p_sw = sub.add_parser("shockwave", help="evolve with the shockwave preset")
    _add_common(p_sw, with_grid=True)
    p_sw.set_defaults(func=lambda a: cmd_evolve(a, forced_preset="shockwave"))

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--only", default=None,
                       help="comma-separated check names to run")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, QuadratureError, NumericConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
