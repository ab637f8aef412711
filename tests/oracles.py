"""Independent oracles that only tests use.

They re-derive what they check from the profile and generator data alone
(the real 2k mode recursion from a pairing matrix alone), so they import
from `qicsim` only those data classes
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


def real_forms(S) -> tuple[np.ndarray, np.ndarray]:
    """The metric M = Re G and symplectic form W = 2 Im G of the vacuum over
    the real 2k basis {O_1..O_k, f(O_1)..f(O_k)}, G = [[S, iS], [-iS, S]]
    being the two-point functions <e_a e_b>; index a < k is O_a, k + a is f(O_a)."""
    re, im = np.real(S), np.imag(S)
    return np.block([[re, -im], [im, re]]), 2.0 * np.block([[im, re], [-re, im]])


def apply_f(u) -> np.ndarray:
    """Coefficient vector of f(A) from that of A: (q, p) -> (-p, q)."""
    k = len(u) // 2
    return np.concatenate([-u[k:], u[:k]])


def real_mode_recursion(S, eps: float = 1e-10) -> dict:
    """The ordered mode recursion over the real 2k basis.

    Each O_i loses its components beta = (1/i)<[O_i, P_m]> along Q_m and
    gamma = -(1/i)<[O_i, Q_m]> along P_m = f(Q_m), read off W; a remainder
    of norm alpha^2 <= eps * 2<O_i^2> is skipped.  Returns the alphas, the
    (generator, mode) arrays betas and gammas, the modes' quadrature
    coefficients q and p (rows) and the skipped generators.
    """
    M, W = real_forms(S)
    k = len(S)
    q, alphas, skipped = [], [], []
    betas, gammas = np.zeros((k, k)), np.zeros((k, k))
    for i in range(k):
        resid = np.zeros(2 * k)
        resid[i] = 1.0
        norm2 = alpha2 = 2.0 * M[i, i]
        for m, qm in enumerate(q):
            pm = apply_f(qm)
            b, g = W[i] @ pm, -(W[i] @ qm)
            betas[i, m], gammas[i, m] = b, g
            resid -= b * qm + g * pm
            alpha2 -= b * b + g * g
        if alpha2 <= eps * norm2:
            skipped.append(i)
            continue
        alphas.append(math.sqrt(alpha2))
        q.append(resid / alphas[-1])
    n = len(q)
    q = np.array(q).reshape(n, 2 * k)
    return {"alphas": np.array(alphas), "betas": betas[:, :n], "gammas": gammas[:, :n],
            "q": q, "p": np.array([apply_f(v) for v in q]).reshape(n, 2 * k),
            "skipped": tuple(skipped)}
