"""Seeded inputs, operations and correctness checks of the four workloads.

Every workload is a fixed-size batch of operations generated from the seed.
CLI operations run `qicsim.cli.main` on a generated ``--config`` file; the
oracle operations call the two cross-check paths the CLI does not reach.
Random parameters are drawn stratified (one draw per equal-width stratum,
strata shuffled) so that the cost of a batch barely depends on the seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

EVOLVE_THREADS = len(os.sched_getaffinity(0))

# the highest per-op percentile with at least ten samples beyond it, for
# the fewest operations a run of the workload makes (MIN_OPS)
TAIL_PERCENTILE = {"capacity": 90, "evolve-d2": 80, "evolve-d3": 80, "oracle": 82}
MIN_OPS = {name: math.ceil(10 / (1 - p / 100)) for name, p in TAIL_PERCENTILE.items()}


@dataclass
class Op:
    """One operation of a workload batch."""

    name: str
    kind: str                     # "cli" or "call"
    argv: list = field(default_factory=list)
    out: str | None = None
    call: tuple | None = None     # (function name, args) for oracle calls
    meta: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n stratified uniforms on [0, 1), one per stratum, in shuffled order."""
    return (rng.permutation(n) + rng.random(n)) / n


def write_config(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, name + ".config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return path


def _cli_op(workdir: str, name: str, command: str, cfg: dict, ext: str, **meta) -> Op:
    out = os.path.join(workdir, name + ext)
    cfg = dict(cfg, out=out)
    path = write_config(workdir, name, cfg)
    return Op(name=name, kind="cli", argv=[command, "--config", path], out=out, meta=meta)


# ---------------------------------------------------------------- capacity

# How long a hard-shell pairing takes depends chaotically on its geometry
# (a 2% change can double the segments it needs), so a batch of purely
# random scenarios varies in cost from seed to seed.  Most of the family is
# therefore a fixed design; the seed draws the rest.
N_DESIGN = 30
N_SEEDED = 8
_MARGIN = 0.1


def _shell(r_inner, r_outer, d, t, coupling):
    return {"kind": "hard_shell", "r_inner": float(r_inner), "r_outer": float(r_outer),
            "center": [0.0] * d, "t": float(t), "coupling": float(coupling)}


def _family(rng: np.random.Generator, n: int):
    """(dimension, scenario) for n hard-ball senders, dimensions alternating.

    Receivers are concentric shells inside, straddling and outside the
    sender's smeared light cone, each ``_MARGIN`` clear of the cone's edges
    so that `make_channel_scenario` classifies them as such.
    """
    u_ball, u_gap, u_width = _strata(rng, n), _strata(rng, n), _strata(rng, n)
    for i in range(n):
        d = 3 if i % 2 == 0 else 2
        r_a = 0.6 + 0.8 * u_ball[i]
        dt = r_a + 0.8 + 1.4 * u_gap[i]
        inside = (0.0, dt - r_a - _MARGIN)
        straddling = (dt - r_a + _MARGIN, dt + r_a - _MARGIN)
        r_out = dt + r_a + _MARGIN
        outside = (r_out, r_out + 0.6 + 0.6 * u_width[i])
        yield d, {
            "alice": _shell(0.0, r_a, d, 0.0, 1.0),
            "bobs": [_shell(a, b, d, dt, 0.2) for a, b in (inside, straddling, outside)],
        }


def capacity_ops(seed: int, workdir: str) -> list[Op]:
    ops = [
        _cli_op(workdir, f"cap_table1_d{d}", "capacity",
                {"dimension": d, "preset": "table1"}, ".json", dimension=d)
        for d in (3, 2)
    ]
    for kind, rng, n in (("design", _rng(0, "capacity-design"), N_DESIGN),
                         ("seeded", _rng(seed, "capacity"), N_SEEDED)):
        for i, (d, scenario) in enumerate(_family(rng, n)):
            ops.append(_cli_op(workdir, f"cap_{kind}_{i:02d}_d{d}", "capacity",
                               {"dimension": d, "scenario": scenario}, ".json", dimension=d))
    return ops


# ----------------------------------------------------------------- evolve

SIGMA = 0.2


def _gaussian(center, t):
    return {"kind": "gaussian", "sigma": SIGMA, "center": [float(c) for c in center],
            "t": float(t), "coupling": 1.0}


def _axis(name, lo, hi, step):
    return f"{name}={lo:g}:{hi:g}:{step:g}"


def _off_lattice(rng, step, d):
    """Offset that puts a center strictly between lattice points on every axis."""
    return step * rng.uniform(0.2, 0.8, size=d) * rng.choice((-1.0, 1.0), size=d)


def _layouts(seed: int, workload: str, d: int):
    """(name, generators, snapshot time, grid text, grid points) per operation.

    Lattice layouts put every emitter on a grid point (the single emitter
    at the grid's centre, the row of three on its mirror axis), so many
    grid points share a radius; off-lattice layouts shift the emitters so
    that almost every point has its own.
    """
    rng = _rng(seed, workload)
    # per layout, one stratified snapshot time per operation
    u_t = {layout: _strata(rng, 4) for layout in ("lattice", "offlattice")}
    z_fixed = ["z=0"] if d == 3 else []
    if d == 2:
        half, step = 4.0, 0.2               # 41 x 41 single-emitter grid
        tri_x, tri_y, tri_step = (-1.0, 7.0), (-4.0, 4.0), 0.25  # 33 x 33
        tri_spacing = 1.25                  # emitters on grid points
        cube = None
        # later snapshots need more k nodes per point: evaluate dominates
        t_single, t_tri = ((2.5, 3.0), (3.5, 4.0)), (3.5, 4.0)
    else:
        half, step = 6.0, 0.1               # 121 x 121 slice through z = 0
        tri_x, tri_y, tri_step = (-1.0, 7.0), (-4.0, 4.0), 0.1   # 81 x 81
        tri_spacing = 1.2
        cube = (1.2, 0.1)                   # 25^3 volume grid
        t_single, t_tri = ((1.2, 1.8), (2.2, 2.8)), (3.0, 3.5)
    single_grid = ",".join([_axis("x", -half, half, step), _axis("y", -half, half, step)]
                           + z_fixed)
    n_single = round(2 * half / step + 1) ** 2
    tri_grid = ",".join([_axis("x", *tri_x, tri_step), _axis("y", *tri_y, tri_step)] + z_fixed)
    n_tri = (round((tri_x[1] - tri_x[0]) / tri_step) + 1) * (round((tri_y[1] - tri_y[0]) / tri_step) + 1)

    out = []
    for layout in ("lattice", "offlattice"):
        u = u_t[layout]
        for j, (lo, hi) in enumerate(t_single):
            center = np.zeros(d)
            if layout == "offlattice":
                center += _off_lattice(rng, step, d)
            out.append((f"{layout}_single{j}", [_gaussian(center, 0.0)], lo + (hi - lo) * u[j],
                        single_grid, n_single))
        # shockwave-like row of three emitters fired at 0.5, 1.0, 1.5
        centers = [np.array([tri_spacing * i] + [0.0] * (d - 1)) for i in (1, 2, 3)]
        if layout == "offlattice":
            centers = [c + _off_lattice(rng, tri_step, d) for c in centers]
        gens = [_gaussian(c, 0.5 * i) for i, c in zip((1, 2, 3), centers)]
        out.append((f"{layout}_triple", gens, t_tri[0] + (t_tri[1] - t_tri[0]) * u[2],
                    tri_grid, n_tri))
        if cube is not None:
            h, st = cube
            cgrid = ",".join(_axis(a, -h, h, st) for a in "xyz")
            c = np.zeros(3) if layout == "lattice" else _off_lattice(rng, st, 3)
            n_cube = round(2 * h / st + 1) ** 3
            out.append((f"{layout}_volume", [_gaussian(c, 0.0)], 1.0 + 0.2 * u[3], cgrid, n_cube))
    return out


def evolve_ops(seed: int, workdir: str, d: int, threads: int = EVOLVE_THREADS) -> list[Op]:
    workload = f"evolve-d{d}"
    ops = []
    for name, gens, t, grid, npts in _layouts(seed, workload, d):
        cfg = {"dimension": d, "scenario": {"generators": gens}, "t": float(t), "grid": grid,
               "threads": threads}
        varying = sum(1 for part in grid.split(",") if ":" in part)
        ops.append(_cli_op(workdir, f"ev{d}_{name}", "evolve", cfg, ".csv",
                           points=npts, generators=len(gens), varying=varying))
    return ops


# ----------------------------------------------------------------- oracle

@functools.cache
def _oracle_profiles():
    """The scenario profiles the test suite checks ft_oracle on."""
    from qicsim.smearing import RadialSmearing

    return [
        RadialSmearing.gaussian(SIGMA, (0.3, -0.2, 0.5), 3),
        RadialSmearing.hard_ball(1.0, (0.0, 0.0, 0.0), 3),
        RadialSmearing.hard_shell(1.1, 2.9, (0.2, 0.0, 0.0), 3),
        RadialSmearing.hard_shell(3.1, 4.0, (0.0, 0.0, 0.0), 3),
        RadialSmearing.gaussian(SIGMA, (0.1, 0.4), 2),
        RadialSmearing.hard_shell(0.0, 0.9, (0.0, 0.0), 2),
        RadialSmearing.hard_shell(1.1, 2.9, (0.0, 0.0), 2),
        RadialSmearing.hard_shell(3.1, 4.0, (0.0, 0.0), 2),
    ]


# |k| values per profile kind on a midpoint grid of [0, 50/scale], and how
# many transforms one operation makes.  A shell transform takes milliseconds,
# and operations that short timed too unsteadily for a median, so shell
# transforms are grouped four to an operation.
ORACLE_K_GRID = {"gaussian": 4, "hard_shell": 20}
ORACLE_GROUP = {"gaussian": 1, "hard_shell": 4}
ORACLE_EDGE_DRAWS = 3


def oracle_ops(seed: int, workdir: str) -> list[Op]:
    """ft_oracle at |k| <= 50/scale (the test suite's range) and the six
    damped-tail pairings of the table1 cross-check.

    Each profile gets ``ORACLE_K_GRID`` |k| on a midpoint grid and
    ``ORACLE_EDGE_DRAWS`` at the bound |k| = 50/scale itself, all in seeded
    directions.  The magnitudes are not seeded: how many refinements
    ft_oracle needs jumps with |k|, and drawn magnitudes made the median
    operation time depend on the seed.  The edge draws of the Gaussian
    profiles are the costliest transforms and set the peak memory; with the
    damped pairings they are the twelve slowest operations, so the tail
    percentile falls on them.
    """
    rng = _rng(seed, "oracle")
    ft_ops = []
    for p, s in enumerate(_oracle_profiles()):
        scale = s.sigma if s.kind == "gaussian" else s.r_outer
        n_grid, group = ORACLE_K_GRID[s.kind], ORACLE_GROUP[s.kind]
        grid = list((np.arange(n_grid) + 0.5) / n_grid)
        edge = [1.0] * ORACLE_EDGE_DRAWS
        groups = [grid[i:i + group] for i in range(0, n_grid, group)]
        groups += [edge[i:i + group] for i in range(0, len(edge), group)]
        for j, fracs in enumerate(groups):
            k_vecs = []
            for f in fracs:
                n = rng.normal(size=s.dimension)
                k_vecs.append(tuple(float(v) for v in (f * 50.0 / scale) * n / np.linalg.norm(n)))
            weight = 100.0 if s.kind == "gaussian" else 1.0
            ft_ops.append(Op(name=f"ft_p{p}_{j:02d}", kind="call",
                             call=("ft_oracle", (p, tuple(k_vecs))),
                             meta={"cost": weight * sum(f * f for f in fracs)}))
    pair_ops = [
        Op(name=f"damped_d{d}_{a}{b}", kind="call", call=("pairing_damped", (d, a, b)))
        for d in (3, 2) for a, b in (("b2", "b2"), ("b2", "alice"), ("b3", "alice"))
    ]
    # the cheapest transform goes first, as the warm-up operation; the rest
    # follow in one fixed shuffled order, so that each kind of operation is
    # timed across the whole pass and not in one stretch of it (a run makes
    # a single pass, and the host's speed drifts within it)
    ft_ops.sort(key=lambda op: op.meta["cost"])
    rest = ft_ops[1:] + pair_ops
    order = np.random.default_rng(zlib.crc32(b"oracle-order")).permutation(len(rest))
    return [ft_ops[0]] + [rest[i] for i in order]


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    if workload == "capacity":
        return capacity_ops(seed, workdir)
    if workload == "evolve-d2":
        return evolve_ops(seed, workdir, 2)
    if workload == "evolve-d3":
        return evolve_ops(seed, workdir, 3)
    if workload == "oracle":
        return oracle_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- execution

class OpFailed(Exception):
    pass


def _table1_generator(d: int, which: str):
    from qicsim.scenarios import table1_scenario

    sc = table1_scenario(d)
    return sc.alice if which == "alice" else sc.bobs[int(which[1]) - 1]


def run_op(op: Op) -> bytes:
    """Execute one operation; returns its output bytes."""
    if op.kind == "cli":
        from qicsim import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(op.argv)
        if code != 0:
            raise OpFailed(f"{op.name}: exit code {code}: {sink.getvalue().strip()[-300:]}")
        with open(op.out, "rb") as fh:
            return fh.read()
    fn, args = op.call
    if fn == "ft_oracle":
        from qicsim.smearing import ft_oracle

        p, k_vecs = args
        return b";".join(_complex_bytes(ft_oracle(_oracle_profiles()[p], k)) for k in k_vecs)
    from qicsim.field_kernel import pairing_damped

    d, a, b = args
    val, err = pairing_damped(_table1_generator(d, a), _table1_generator(d, b), d)
    return _complex_bytes(val, err)


def _complex_bytes(val: complex, err: float | None = None) -> bytes:
    parts = [float(val.real).hex(), float(val.imag).hex()]
    if err is not None:
        parts.append(float(err).hex())
    return ",".join(parts).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------- checks

_SUBSETS = ("B1", "B2", "B3", "B1B2", "B2B3", "B1B3", "B1B2B3")


def _labels(subset: str) -> set:
    return {subset[i:i + 2] for i in range(0, len(subset), 2)}


def check_output(op: Op, data: bytes) -> dict:
    """Invariant checks of one output; raises OpFailed.  Returns the numeric
    summary compared against the recorded reference."""
    if op.argv and op.argv[0] == "capacity":
        rep = json.loads(data)
        caps = {k: rep["capacities"][k]["capacity"] for k in _SUBSETS}
        priors = {k: rep["capacities"][k]["optimal_prior"] for k in _SUBSETS}
        if rep["scenario"]["geometry"] != ["inside", "straddling", "outside"]:
            raise OpFailed(f"{op.name}: geometry {rep['scenario']['geometry']}")
        for k in _SUBSETS:
            if not (math.isfinite(caps[k]) and caps[k] >= 0.0):
                raise OpFailed(f"{op.name}: C_{k} = {caps[k]!r}")
            if not 0.0 <= priors[k] <= 1.0:
                raise OpFailed(f"{op.name}: prior of {k} = {priors[k]!r}")
        for small in _SUBSETS:
            for big in _SUBSETS:
                if _labels(small) < _labels(big) and \
                        caps[big] < caps[small] - (1e-12 + 1e-9 * caps[small]):
                    raise OpFailed(f"{op.name}: C_{big} < C_{small}")
        if caps["B3"] > 1e-8:
            raise OpFailed(f"{op.name}: outside receiver signals, C_B3 = {caps['B3']:.3e}")
        return {"capacities": [caps[k] for k in _SUBSETS]}
    if op.argv and op.argv[0] == "evolve":
        text = data.decode()
        header = [ln for ln in text.splitlines() if ln.startswith("# ")][-1][2:].split(",")
        want_cols = op.meta["varying"] + 4 * op.meta["generators"]
        if len(header) != want_cols:
            raise OpFailed(f"{op.name}: {len(header)} header columns, expected {want_cols}")
        table = np.loadtxt(io.StringIO(text), delimiter=",", comments="#", ndmin=2)
        if table.shape != (op.meta["points"], want_cols):
            raise OpFailed(f"{op.name}: table shape {table.shape}, expected "
                           f"({op.meta['points']}, {want_cols})")
        if not np.isfinite(table).all():
            raise OpFailed(f"{op.name}: non-finite values")
        return {"column_norms": [float(v) for v in np.linalg.norm(table, axis=0)]}
    fn, args = op.call
    values = []
    for part in data.decode().split(";"):
        nums = [float.fromhex(x) for x in part.split(",")]
        values.append(complex(nums[0], nums[1]))
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
        raise OpFailed(f"{op.name}: non-finite value")
    if fn == "ft_oracle":
        from qicsim.smearing import radial_ft

        s = _oracle_profiles()[args[0]]
        devs = []
        for k_vec, val in zip(args[1], values):
            k_vec = np.asarray(k_vec)
            k = float(np.linalg.norm(k_vec))
            closed = radial_ft(s, k) * np.exp(1j * float(k_vec @ np.asarray(s.center)))
            devs.append(abs(closed - val) / (1.0 + abs(radial_ft(s, k))))
        dev = max(devs)
    else:
        from qicsim.field_kernel import pairing

        d, a, b = args
        fast = pairing(_table1_generator(d, a), _table1_generator(d, b), d)
        dev = abs(fast - values[0]) / (1.0 + abs(fast))
    # the same 1e-8 agreement the test suite demands of both oracles
    if dev > 1e-8:
        raise OpFailed(f"{op.name}: oracle deviates by {dev:.2e}")
    return {"value": [x for v in values for x in (v.real, v.imag)]}


def matches_reference(summary: dict, ref: dict) -> bool:
    """True when a numeric summary agrees with the recorded one within the
    accuracy the outputs claim (changed last digits are allowed)."""
    for key, vals in summary.items():
        want = ref.get(key)
        if want is None or len(want) != len(vals):
            return False
        for a, b in zip(vals, want):
            if key == "capacities":
                tol = 1e-13 + 1e-6 * abs(b)
            elif key == "column_norms":
                tol = 1e-9 * (1.0 + abs(b))
            else:
                tol = 1e-8 * (1.0 + abs(b))
            if abs(a - b) > tol:
                return False
    return True
