"""Command-line front end.

Commands
--------
capacity    channel capacities for a sender/receiver scenario (JSON report)
evolve      weighting-function grids of a mode set (CSV, one row per point)
shockwave   alias for ``evolve --preset shockwave``
validate    run the invariant suite and report pass/fail with residuals

A run is configured by an optional JSON config file (``--config``) whose
keys are the long flags of its command plus an inline ``scenario``;
explicit flags override config values.  Any other key, a flag of another
command included, is rejected before any computation starts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .channel import capacity_table, make_channel_scenario
from .errors import ConfigurationError, NumericConsistencyError, QuadratureError
from .qic import Generator, GridAxis, GridSpec, build_qic, weighting_grid
from .scenarios import PRESETS, preset, _serialize_generator
from .smearing import GAUSSIAN, HARD_SHELL, RadialSmearing
from .validate import run_checks

_GEN_COMMON = ("t", "coupling", "amplitude")  # numeric keys of every generator kind

_CSV_BLOCK_ROWS = 4096


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D array as comma-separated ``_fmt`` text."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"  # "%.17g" % x == _fmt(x)
    return (row * len(values) % tuple(values.ravel().tolist())).splitlines()


def _reject_unknown(obj: dict, allowed: set, context: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown {context} keys: {unknown}")


def _require(obj: dict, keys, context: str) -> None:
    for key in keys:
        if key not in obj:
            raise ConfigurationError(f"{context} missing {key!r}")


def _number(value, what: str, kind=float):
    """``value`` as a ``kind``: never a boolean, and a whole number for ``int``."""
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        num = float(value)
        if kind is int and not num.is_integer():
            raise ValueError(value)
        return kind(num)
    except (TypeError, ValueError, OverflowError) as exc:
        whole = " whole" if kind is int else ""
        raise ConfigurationError(f"{what}: {value!r} is not a{whole} number") from exc


def _typed(value, kind, what: str):
    if not isinstance(value, kind):
        raise ConfigurationError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _load_config(args) -> dict:
    """The ``--config`` file of ``args``: an object whose keys are the
    command's own long options (``config`` aside) plus ``scenario``."""
    path = args.config
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, too long
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config file must contain a JSON object")
    _reject_unknown(cfg, (set(vars(args)) - {"command", "func", "config"}) | {"scenario"}, "config")
    for key in ("grid", "out", "preset"):  # the other string settings are checked where used
        if cfg.get(key) is not None:
            _typed(cfg[key], str, f"config key {key!r}")
    return cfg


def _setting(args, cfg: dict, key: str, default=None, kind=None):
    """Flag, else config value, else ``default``; converted by ``kind``."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        val = cfg.get(key)
    if val is None:
        val = default
    return val if kind is None or val is None else _number(val, f"config key {key!r}", kind)


def _tolerance(args, cfg: dict, key: str) -> float:
    """A tolerance setting (default 1e-10): finite and > 0, else no search or
    integral it sets could end."""
    val = _setting(args, cfg, key, 1e-10, float)
    if not 0.0 < val < math.inf:
        raise ConfigurationError(f"config key {key!r}: {val!r} is not a finite number > 0")
    return val


def _generator_from_spec(spec: dict, dimension: int, what: str) -> Generator:
    _require(_typed(spec, dict, what), ("kind", "center", "t"), "generator definition")
    kind = _typed(spec["kind"], str, "generator key 'kind'")
    shape = {GAUSSIAN: ("sigma",), HARD_SHELL: ("r_inner", "r_outer")}.get(kind)
    if shape is None:
        raise ConfigurationError(f"unknown generator kind {kind!r}")
    _reject_unknown(spec, {"kind", "center", *shape, *_GEN_COMMON}, "generator")
    _require(spec, shape, f"{kind} generator")
    num = {key: _number(spec.get(key, 1.0), f"generator key {key!r}") for key in shape + _GEN_COMMON}
    center = tuple(_number(c, "generator key 'center'")
                   for c in _typed(spec["center"], list, "generator key 'center'"))
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
        alice = _generator_from_spec(inline["alice"], dim, "scenario key 'alice'")
        bobs = [_generator_from_spec(b, dim, "each of scenario key 'bobs'")
                for b in _typed(inline["bobs"], list, "scenario key 'bobs'")]
        return dim, make_channel_scenario(alice, bobs, dim), None
    _reject_unknown(inline, {"generators", "times"}, "scenario")
    _require(inline, ("generators",), "inline scenario")
    gens = [_generator_from_spec(g, dim, "each of scenario key 'generators'")
            for g in _typed(inline["generators"], list, "scenario key 'generators'")]
    if not gens:
        raise ConfigurationError("inline scenario has no generators")
    return dim, gens, None


def cmd_capacity(args) -> int:
    cfg = _load_config(args)
    dim, scenario, _ = _resolve_scenario(args, cfg, "channel")
    base = _setting(args, cfg, "log_base", "2")
    tol = _tolerance(args, cfg, "tol")
    search_tol = _tolerance(args, cfg, "search_tol")
    result = capacity_table(scenario, base=base, tol=tol, search_tol=search_tol)

    report = {
        "dimension": dim,
        "log_base": result.log_base,
        "search_tol": result.search_tol,
        "pairing_error_bound": result.moments.error_bound,
        "scenario": {
            "alice": _serialize_generator(scenario.alice),
            "bobs": [_serialize_generator(b) for b in scenario.bobs],
            "geometry": list(scenario.geometry),
        },
        "capacities": {
            label: {"capacity": c, "optimal_prior": result.priors[label]}
            for label, c in result.capacities.items()
        },
    }
    out = _setting(args, cfg, "out", f"capacity_d{dim}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for label, c in result.capacities.items():
        print(f"C_{label} = {_fmt(c)} (q* = {result.priors[label]:.6f})")
    print(f"wrote {out}")
    return 0


def _sigma_scale(generators) -> float:
    for g in generators:
        if g.smearing.kind == GAUSSIAN:
            return g.smearing.sigma
    return 1.0


def cmd_evolve(args, forced_preset: str | None = None) -> int:
    cfg = _load_config(args)
    if forced_preset is not None and args.preset is None:
        args.preset = forced_preset
    dim, generators, pre = _resolve_scenario(args, cfg, "evolve")

    t_setting = _setting(args, cfg, "t")
    if t_setting is None and isinstance(cfg.get("scenario"), dict):
        t_setting = cfg["scenario"].get("times")
    if t_setting is None and pre is not None:
        times = list(pre.default_times)
    elif t_setting is None or t_setting == []:
        raise ConfigurationError("no snapshot time: pass --t")
    else:
        times = [_number(t, "snapshot time 't'")
                 for t in (t_setting if isinstance(t_setting, list) else [t_setting])]

    grid_setting = _setting(args, cfg, "grid")
    if grid_setting is not None:
        grid = _parse_grid(grid_setting, dim)
    elif pre is not None and pre.grid is not None:
        grid = pre.grid
    else:
        raise ConfigurationError("no grid: pass --grid")

    tol = _tolerance(args, cfg, "tol")
    threads = _setting(args, cfg, "threads", 1, int)
    out_base = _setting(args, cfg, "out")

    modes = build_qic(generators, dim, tol=tol)
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
    """One CSV row per grid point: the varying coordinates, then each mode's
    four scaled weights, every float as ``%.17g``.

    Each float is formatted once: each varying axis's values up front, and
    each distinct weight row (by bit pattern, so -0.0 and 0.0 stay apart) at
    its first use, since equal bits give equal text.  Lines are written one
    block of ``_CSV_BLOCK_ROWS`` points at a time and a row's text is dropped
    after its last use, so the text held at once is the axis values, one
    block, and the distinct rows used both before and after that block.
    """
    d = grid_data.dimension
    names = ("x", "y", "z")[:d]
    spec = grid_data.spec
    varying = [(n, a) for n, a in zip(names, spec.axes) if isinstance(a, GridAxis)]
    fixed = [(n, a) for n, a in zip(names, spec.axes) if not isinstance(a, GridAxis)]
    s_field = sigma ** ((d + 1) / 2.0)
    s_mom = sigma ** ((d - 1) / 2.0)
    cols = []
    for m in grid_data.mode_indices:
        i = m + 1
        cols += [f"q_field_{i}", f"q_mom_{i}", f"p_field_{i}", f"p_mom_{i}"]
    weights = (grid_data.q_field, grid_data.q_momentum, grid_data.p_field, grid_data.p_momentum)
    table = np.empty((math.prod(spec.shape), len(cols)))
    for j in range(len(cols)):
        row, k = divmod(j, 4)
        np.multiply((s_field, s_mom)[k % 2], weights[k][row].ravel(), out=table[:, j])
    bits = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
    rows, first, ids = np.unique(bits, return_index=True, return_inverse=True)
    del table, bits  # the distinct rows stand in for the table
    rows = rows.view(np.float64).reshape(len(first), -1)
    last = np.zeros(len(first), dtype=np.intp)
    np.maximum.at(last, ids, np.arange(len(ids)))
    axis_text = [np.array(_fmt_rows(a.values()[:, None]), dtype=object) for _, a in varying]
    text = np.empty(len(first), dtype=object)  # a row's text from its first use to its last
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
        fh.write("# " + ",".join([n for n, _ in varying] + cols) + "\n")
        for r0 in range(0, len(ids), _CSV_BLOCK_ROWS):
            block = ids[r0 : r0 + _CSV_BLOCK_ROWS]
            pos = np.arange(r0, r0 + len(block))
            new = block[first[block] == pos]
            text[new] = _fmt_rows(rows[new])
            coords = [t[i].tolist() for t, i in zip(axis_text, np.unravel_index(pos, spec.shape))]
            fh.write("\n".join(map(",".join, zip(*coords, text[block].tolist()))) + "\n")
            text[block[last[block] == pos]] = None


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
    p.add_argument("--preset", choices=tuple(PRESETS), default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    p.add_argument("--out", default=None, help="output path")
    if with_grid:
        p.add_argument("--t", type=float, default=None, help="snapshot time")
        p.add_argument("--grid", default=None,
                       help='e.g. "x=-6:6:0.05,y=-6:6:0.05,z=0"')
        p.add_argument("--threads", type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each command is looked up as it runs (so it can be patched)."""
    parser = argparse.ArgumentParser(prog="qicsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="channel capacities per receiver subset")
    _add_common(p_cap, with_grid=False)
    p_cap.add_argument("--log-base", dest="log_base", choices=("2", "e"), default=None)
    p_cap.add_argument("--search-tol", dest="search_tol", type=float, default=None)
    p_cap.set_defaults(func=lambda a: cmd_capacity(a))

    p_ev = sub.add_parser("evolve", help="weighting-function grids over spacetime")
    _add_common(p_ev, with_grid=True)
    p_ev.set_defaults(func=lambda a: cmd_evolve(a))

    p_sw = sub.add_parser("shockwave", help="evolve with the shockwave preset")
    _add_common(p_sw, with_grid=True)
    p_sw.set_defaults(func=lambda a: cmd_evolve(a, forced_preset="shockwave"))

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--only", default=None,
                       help="comma-separated check names to run")
    p_val.set_defaults(func=lambda a: cmd_validate(a))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, QuadratureError, NumericConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
