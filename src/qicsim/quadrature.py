"""Radial quadrature for oscillatory momentum-space integrals.

Everything this package computes reduces to one-dimensional integrals

    I = int_0^inf f(k) dk,    f(k) = (smooth envelope) x (trig/Bessel kernels)
                                     x e^{i tau k},

where the envelope decays either like a Gaussian (Gaussian smearings) or
only algebraically (hard shells).  Algebraic decay rules out plain
truncation: the tail of a shell-shell integrand falls off like 1/k^3, so
cutting at k = 10^4 still leaves ~1e-8 behind.  d=3 hard shells reach this
module only as a fallback: `field_kernel` sums their integrals exactly.

Strategy
--------
* One node-doubling rule, `certified_rule`, serves every production
  integral: `panel_nodes` (the one panel cap) on [0, K], PANEL_NODES per
  panel doubled until n and 2n nodes agree, with the rounding ROUNDING
  sum|w f| and the caller's extra error inside the acceptance.
* Algebraic decay: `oscillatory_integral` is that rule on [0, K] plus the
  exact integral beyond K.  There the integrand is a finite sum of terms
  c k^-p e^{i omega k} (built by `field_kernel._expansion`), and
  `power_tails` integrates each term exactly through the generalized
  exponential integral `expint` (DLMF 8.19), one call for the terms of
  many integrals.  A surviving omega = 0 term with p <= 1 is a divergence,
  flagged at once.
* `damped_tail_integral` is an intentionally independent cross-check: it
  multiplies the integrand by e^{-eta k}, integrates the now absolutely
  convergent integral for a ladder of eta values, and extrapolates eta -> 0
  with a log-aware model (the eta^2 ln eta term is real; a pure polynomial
  extrapolation stalls on it).  One integrand pass serves all eta rungs.
  Its grid follows from two bounds: rung eta stops where e^{-eta k} = eps,
  and DAMPING_NODES = 24 per segment of phase <= DAMPING_PHASE = 6 pi leave
  a remainder < 2.6e-29 of the segment's length.  A grid over the
  DAMPING_SEGMENTS budget is refused before any evaluation.
  The grid is summed in fixed blocks of DAMPING_BLOCK segments, added in
  block order whatever the CPU count.  It shares no tail code with the
  primary path and is used by the test suite as the second quadrature
  scheme.

The integrators return ``(value, error_estimate)`` so callers can propagate
achieved accuracy instead of assuming it.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import digamma, gamma

from .errors import ConfigurationError, QuadratureError

MAX_SEGMENTS = 1 << 17  # panel cap of `panel_nodes`
PANEL_NODES = 8  # starting Gauss-Legendre nodes per panel (doubled until certified)
DAMPING_ETA0 = 0.04  # largest damping rate of `damped_tail_integral`
DAMPING_RUNGS = 7  # its damping rates: DAMPING_ETA0 / 2^j, j < DAMPING_RUNGS
DAMPING_NODES = 24  # its Gauss-Legendre nodes per segment
DAMPING_PHASE = 6.0 * math.pi  # its segments' length times (omega + 1)
DAMPING_BLOCK = 625  # its segments per block (15,000 points), the unit of work and of summation
DAMPING_SEGMENTS = 1 << 20  # its grid budget (25,165,824 points), 22.5x the suite's largest grid
EXPINT_CUT = 2.0  # `expint` takes the continued fraction at |z| >= EXPINT_CUT, the series below
EXPINT_STEPS = 1000  # its continued-fraction step cap
EXPINT_SERIES = 32  # its series terms: 2^32 / 32! < 1e-25
_EPS = np.finfo(float).eps
DAMPING_CUTOFF = math.nextafter(-math.log(_EPS), math.inf)  # e^{-DAMPING_CUTOFF} <= eps
ROUNDING = 8.0 * _EPS  # padded relative rounding of one term or node of a sum


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _segment_nodes(edges: np.ndarray, nodes: int):
    """Gauss-Legendre nodes (one row per segment), weights and half-lengths."""
    x, w = _gauss_legendre(nodes)
    half = 0.5 * (edges[1:] - edges[:-1])
    return 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * x[None, :], w, half


def segment_integrals(f, edges: np.ndarray, nodes: int = 24) -> np.ndarray:
    """Gauss-Legendre integral of ``f`` over each consecutive pair of edges."""
    pts, w, half = _segment_nodes(edges, nodes)
    vals = np.asarray(f(pts.ravel())).reshape(pts.shape)
    return (vals * w[None, :]).sum(axis=1) * half


# perfbench/spans.py looks both names up; nothing else calls them
def wynn_epsilon(partial_sums: np.ndarray) -> np.ndarray:
    raise NotImplementedError("wynn_epsilon is gone; only perfbench/spans.py still names it")


def _tail_model_intercept(k_samples, s_samples, osc_freqs, powers) -> complex:
    raise NotImplementedError("_tail_model_intercept is gone; only perfbench/spans.py still names it")


def expint(p, z) -> np.ndarray:
    """Generalized exponential integral E_p(z) = int_1^inf e^{-z t} t^-p dt
    (DLMF 8.19), continued analytically to |arg z| < pi, for arrays of real
    p (integer or half-integer) and complex z != 0.

    |z| >= EXPINT_CUT: the continued fraction e^{-z} / (z + p - 1 p / (z + p + 2
    - 2 (p + 1) / (z + p + 4 - ...))) by the modified Lentz method.  Below: the
    power series -sum_m (-z)^m / (m! (m + 1 - p)) plus Gamma(1 - p) z^{p-1}, or,
    for integer p = n >= 1, the pole's (-z)^{n-1} / (n-1)! [psi(n) - ln z] in
    place of its m = n - 1 term.
    """
    p, z = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(z, dtype=complex))
    out = np.empty(z.shape, dtype=complex)
    far = np.abs(z) >= EXPINT_CUT
    idx = np.flatnonzero(far)
    pf, zf = p[far], z[far]
    b = zf + pf
    c = np.full(zf.shape, 1.0 / np.finfo(float).tiny, dtype=complex)
    d = 1.0 / b
    h = d
    for i in range(1, EXPINT_STEPS + 1):
        a = -i * (pf + (i - 1.0))
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h = h * step
        done = np.abs(step - 1.0) <= _EPS
        if done.any():  # converged entries leave the iteration
            out.flat[idx[done]] = h[done] * np.exp(-zf[done])
            idx, pf, zf, b, c, d, h = (x[~done] for x in (idx, pf, zf, b, c, d, h))
        if not len(idx):
            break
    else:
        raise QuadratureError(f"E_p continued fraction: no convergence in {EXPINT_STEPS} steps")
    pn, zn = p[~far], z[~far]
    pole = (pn >= 1.0) & (pn == np.round(pn))  # the series' m = p - 1 term is a log instead
    total = np.zeros(zn.shape, dtype=complex)
    term = np.ones(zn.shape, dtype=complex)
    for m in range(EXPINT_SERIES):
        den = m + 1.0 - pn
        total -= term / np.where(den == 0.0, np.inf, den)
        term = term * (-zn) / (m + 1)
    log_z = np.log(zn)
    n = np.where(pole, pn, 1.0)
    a = np.where(pole, 0.5, 1.0 - pn)  # Gamma(a) z^{-a}, a = 1 - p off the poles
    out[~far] = total + np.where(pole, (-zn) ** (n - 1.0) / gamma(n) * (digamma(n) - log_z),
                                 gamma(a) * np.exp(-a * log_z))
    return out


def _merged(c, p, omega):
    """Terms merged on exactly equal (p, omega); zero coefficients dropped."""
    order = np.lexsort((omega, p))
    c, p, omega = c[order], p[order], omega[order]
    first = np.concatenate(([True], (p[1:] != p[:-1]) | (omega[1:] != omega[:-1])))
    group = np.cumsum(first) - 1
    c = np.bincount(group, c.real) + 1j * np.bincount(group, c.imag)
    keep = c != 0.0
    return c[keep], p[first][keep], omega[first][keep]


def power_tails(tails) -> list[tuple[complex, float]]:
    """sum c int_K^inf k^-p e^{i omega k} dk over the terms = (c, p, omega)
    arrays of each (terms, K) in ``tails``: c K^{1-p} E_p(-i omega K), or
    c K^{1-p} / (p - 1) for omega = 0.  Returns (value, sum of |term|) per
    set, each merged, checked and summed on its own, with one `expint` call
    for all (elementwise: the same bits as one call each).  A surviving
    omega = 0 term with p <= 1 does not decay and raises `ConfigurationError`."""
    if not tails:
        return []
    plans = []
    for terms, k_split in tails:
        c, p, omega = _merged(*terms)
        still = omega == 0.0
        if np.any(still & (p <= 1.0)):
            raise ConfigurationError("diverges on a light-cone edge")
        vals = c * k_split ** (1.0 - p)
        vals[still] /= p[still] - 1.0
        plans.append((vals, ~still, p[~still], -1j * k_split * omega[~still]))
    e = expint(np.concatenate([plan[2] for plan in plans]), np.concatenate([plan[3] for plan in plans]))
    out, start = [], 0
    for vals, moving, _, z in plans:
        vals[moving] *= e[start : start + len(z)]
        start += len(z)
        out.append((complex(vals.sum()), float(np.abs(vals).sum())))
    return out


def panel_nodes(k_max: float, omega: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, k_max], ``nodes`` per panel
    resolving oscillations of rate ``omega``.  More than MAX_SEGMENTS panels,
    or a count that is not a number, raise `QuadratureError` at once."""
    h = math.pi / max(omega, 1.0)
    n_panels = k_max / h if h else math.inf
    if not n_panels <= MAX_SEGMENTS:
        raise QuadratureError(f"radial integral: {n_panels:.3g} segments > max_segments={MAX_SEGMENTS}")
    pts, w, half = _segment_nodes(np.linspace(0.0, k_max, max(math.ceil(n_panels), 1) + 1), nodes)
    return pts.ravel(), (w[None, :] * half[:, None]).ravel()


def certified_rule(weighted, sums, k_end: float, omega: float, tol: float, extra: float = 0.0):
    """The node-doubling rule of every radial integral on [0, k_end].

    ``weighted(k, w)`` gives w f(k) at the `panel_nodes` (k, w), one column
    per integrand; ``sums(k, wf)`` the integrals, one row per radius.
    PANEL_NODES per panel are doubled until in every column |n - 2n| (largest
    row) + ROUNDING sum|w f| + ``extra`` <= tol sum|w f|, sum|w f| at n nodes.
    Returns the n-node (k, w f), the 2n-node sums and that estimate per
    column.  An excess that stops shrinking, or is NaN, raises
    `QuadratureError` with the sums and estimates reached."""
    def rule(n):
        k, w = panel_nodes(k_end, omega, n)
        return k, weighted(k, w)

    n, coarse, last = PANEL_NODES, rule(PANEL_NODES), math.inf
    coarse_sums = sums(*coarse)
    while True:
        fine = rule(2 * n)
        fine_sums = sums(*fine)
        scale = np.abs(coarse[1]).sum(axis=0)
        err = np.abs(coarse_sums - fine_sums).max(axis=0) + ROUNDING * scale + extra
        excess = float(np.max(err - tol * scale))
        if excess <= 0.0:
            return coarse, fine_sums, err
        if not excess < last:
            raise QuadratureError(f"radial integral: {n} and {2 * n} nodes per panel leave an "
                                  f"estimate {err.max():.2e} (tol={tol:.1e})",
                                  value=fine_sums, estimate=err)
        n, coarse, coarse_sums, last = 2 * n, fine, fine_sums, excess


def oscillatory_integral(integrand, tail, k_split: float, omega: float,
                         tol: float = 1e-10) -> tuple[complex, float]:
    """int_0^inf of ``integrand`` (algebraic decay): a body on [0, k_split] by
    `certified_rule` on panels resolving ``omega``, summed over all nodes at
    once, plus ``tail`` = (value, estimate) of the integral beyond k_split
    (see `power_tails`), whose estimate is the rule's ``extra``.  Returns the
    2n-node value and the estimate."""
    _, sums, err = certified_rule(lambda k, w: (w * integrand(k))[:, None],
                                  lambda k, wf: wf.sum(axis=0, keepdims=True) + tail[0],
                                  k_split, omega, tol, tail[1])
    return complex(sums[0, 0]), float(err[0])


def _damped_block(integrand, h: float, etas, counts, a: int, b: int) -> np.ndarray:
    """Integrals of f(k) e^{-eta k} over segments a..b-1 of the damped grid,
    one per rung: over the rung's own segments among them, 0 past its end."""
    k, w, half = _segment_nodes(h * np.arange(a, b + 1), DAMPING_NODES)
    f = np.asarray(integrand(k.ravel())).reshape(k.shape)
    return np.array([((f[:m] * np.exp(-eta * k[:m]) * w).sum(axis=1) * half[:m]).sum()
                     for eta, m in zip(etas, np.clip(np.subtract(counts, a), 0, b - a))])


def damped_tail_integral(integrand, omega: float) -> tuple[complex, float]:
    """Independent evaluation of int_0^inf f(k) dk by damped-tail extrapolation.

    Integrates f(k) e^{-eta k} (absolutely convergent) for eta = DAMPING_ETA0 / 2^j,
    j < DAMPING_RUNGS, and extrapolates eta -> 0 with the model
    a0 + a1 eta + a2 eta^2 + a3 eta^2 ln eta + a4 eta^3 + a5 eta^3 ln eta.
    One integrand pass over the smallest eta's grid (segments of
    DAMPING_PHASE/(omega+1) = 6 pi/(omega+1)) serves every rung; rung eta sums
    only k <= DAMPING_CUTOFF / eta (e^{-eta k} <= eps).  ``omega`` bounds every
    rate f varies at, envelope too (|f^(48)| <= omega^48 times f's scale): a
    segment h has phase h omega < 6 pi, and the 24-node remainder (A&S 25.4.30)
    h (h omega)^48 (24!)^4 / (49 (48!)^3) is < 2.6e-29 h.  NaN, infinite or
    negative: `ConfigurationError`; so is a grid of more than DAMPING_SEGMENTS
    segments (22.5x the test suite's largest, 46,505 at omega = 14.2; omega = 1e6
    would need 3.06e9), before any evaluation.
    Slow but accurate; intended for cross-checks, not production paths.

    The grid is cut into fixed blocks of DAMPING_BLOCK segments.  `Executor.map`
    runs the blocks on a thread pool with one thread per CPU of
    ``os.sched_getaffinity`` and returns each block's rung integrals in block
    order, where they are added.  Value and estimate therefore do not depend
    on the CPU count, but ``integrand`` must be thread-safe.  An integrand
    error reaches the caller unchanged.
    """
    if not 0.0 <= omega < math.inf:
        raise ConfigurationError(f"damped-tail integral: omega = {omega!r}, not a finite number >= 0")
    h = DAMPING_PHASE / (omega + 1.0)
    etas = DAMPING_ETA0 * 0.5 ** np.arange(DAMPING_RUNGS)
    counts = [int(math.ceil(DAMPING_CUTOFF / eta / h)) for eta in etas]
    total = counts[-1]
    if total > DAMPING_SEGMENTS:
        raise ConfigurationError(f"damped-tail integral: omega = {omega!r} needs {total} segments "
                                 f"> DAMPING_SEGMENTS = {DAMPING_SEGMENTS}")
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        blocks = pool.map(lambda a: _damped_block(integrand, h, etas, counts, a,
                                                  min(a + DAMPING_BLOCK, total)),
                          range(0, total, DAMPING_BLOCK))
        vals = sum(blocks, np.zeros(DAMPING_RUNGS, dtype=complex))
    cols = np.stack(
        [
            np.ones_like(etas),
            etas,
            etas**2,
            etas**2 * np.log(etas),
            etas**3,
            etas**3 * np.log(etas),
        ],
        axis=1,
    )
    coef, *_ = np.linalg.lstsq(cols, vals, rcond=None)
    coef_drop, *_ = np.linalg.lstsq(cols[1:], vals[1:], rcond=None)
    return complex(coef[0]), float(abs(coef[0] - coef_drop[0]))
