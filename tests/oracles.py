"""Independent oracles that only tests use.

They re-derive what they check from the profile and generator data alone,
so they import from `qicsim` only those data classes
(`test_oracles_import_only_data_classes` checks this).
"""

from __future__ import annotations

import math

import numpy as np

from qicsim.qic import Generator
from qicsim.smearing import RadialSmearing


def spatial_eval(s: RadialSmearing, x) -> float:
    """Profile value v(x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.dimension,):
        raise ValueError(f"point has shape {x.shape}, expected ({s.dimension},)")
    r = float(np.linalg.norm(x - np.asarray(s.center)))
    if s.sigma is not None:
        return s.amplitude * math.exp(-(r * r) / (2.0 * s.sigma**2))
    return s.amplitude if s.r_inner < r < s.r_outer else 0.0


def spacelike_separated(gen_i: Generator, gen_j: Generator) -> bool:
    """True when the supports cannot be connected by a causal curve.

    Gaussian profiles have unbounded support and never qualify.  For two
    annular supports the set distance is the largest of: outer surfaces
    apart, or one annulus inside the other's hole.
    """
    si, sj = gen_i.smearing, gen_j.smearing
    if si.r_outer is None or sj.r_outer is None:
        return False
    dx = math.dist(si.center, sj.center)
    dist = max(
        0.0,
        dx - si.r_outer - sj.r_outer,
        si.r_inner - dx - sj.r_outer,
        sj.r_inner - dx - si.r_outer,
    )
    dt = abs(gen_i.coupling_time - gen_j.coupling_time)
    return dist > dt
