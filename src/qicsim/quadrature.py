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
* Gaussian decay present: `panel_nodes` gives the Gauss-Legendre panels, up
  to the envelope's e^-40 point, of `field_kernel`'s node-doubling rule.
* Algebraic decay: `oscillatory_integral` splits [0, inf) at a point K.  The
  body [0, K] is Gauss-Legendre on half-period panels of the fastest
  oscillation, with the node count doubled until n and 2n agree.  Beyond K
  the integrand is a finite sum of terms c k^-p e^{i omega k} (exact for d=3
  shells, Hankel expansions and angular averages for d=2, supplied by
  `field_kernel`), and `power_tail` integrates each term exactly through the
  generalized exponential integral `expint` (DLMF 8.19).  A surviving
  omega = 0 term with p <= 1 is a divergence, flagged at once.
* `damped_tail_integral` is an intentionally independent cross-check: it
  multiplies the integrand by e^{-eta k}, integrates the now absolutely
  convergent integral for a ladder of eta values, and extrapolates eta -> 0
  with a log-aware model (the eta^2 ln eta term is real; a pure polynomial
  extrapolation stalls on it).  One integrand pass serves all eta rungs.
  It shares no tail code with the primary path and is used by the test
  suite as the second quadrature scheme.

The integrators return ``(value, error_estimate)`` so callers can propagate
achieved accuracy instead of assuming it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, gamma

from .errors import ConfigurationError, QuadratureError

MAX_SEGMENTS = 1 << 17  # panel cap of `oscillatory_integral` and `panel_nodes`
PANEL_NODES = 8  # starting Gauss-Legendre nodes per panel (doubled until certified)
DAMPING_ETA0 = 0.04  # largest damping rate of `damped_tail_integral`
DAMPING_RUNGS = 7  # its damping rates: DAMPING_ETA0 / 2^j, j < DAMPING_RUNGS
DAMPING_NODES = 24  # its Gauss-Legendre nodes per segment
EXPINT_CUT = 2.0  # `expint` takes the continued fraction at |z| >= EXPINT_CUT, the series below
EXPINT_STEPS = 1000  # its continued-fraction step cap
EXPINT_SERIES = 32  # its series terms: 2^32 / 32! < 1e-25
_EPS = np.finfo(float).eps

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


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


# no longer called by the package; perfbench/spans.py still looks the name up
def wynn_epsilon(partial_sums: np.ndarray) -> np.ndarray:
    """Diagonal (even-column) estimates of Wynn's epsilon table.

    Returns the sequence of accelerated estimates, last entry deepest.
    Exact ties produce infinities that the recursion absorbs one column
    later (the classical self-healing step); the table is cut off once the
    working differences fall to rounding level, where deeper columns only
    amplify noise, and non-finite diagonal entries are never reported.
    """
    s = np.asarray(partial_sums, dtype=complex)
    scale = float(np.abs(s).max()) + 1e-300
    prev_prev = np.zeros(len(s) + 1, dtype=complex)
    prev = s.copy()
    diag = [s[-1]]
    for m in range(1, len(s)):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d = np.diff(prev)
        finite = np.isfinite(d)
        if not finite.any():
            break
        if m >= 2 and np.abs(d[finite]).max() <= 1e-14 * scale:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cur = prev_prev[1 : len(prev)] + 1.0 / d
        if len(cur) == 0:
            break
        prev_prev, prev = prev, cur
        if m % 2 == 0:
            good = cur[np.isfinite(cur)]
            if len(good):
                diag.append(good[-1])
    return np.array(diag)


# no longer called by the package; perfbench/spans.py still looks the name up
def _tail_model_intercept(k_samples, s_samples, osc_freqs, powers) -> complex:
    """LS fit of S(K) = I - tail(K); returns the intercept I.

    Tail basis: K^-p and, per oscillatory frequency, cos/sin(nu K) * K^-p.
    Columns are normalised for conditioning.
    """
    cols = [np.ones_like(k_samples)]
    for p in powers:
        cols.append(k_samples ** (-float(p)))
    for nu in osc_freqs:
        c, s = np.cos(nu * k_samples), np.sin(nu * k_samples)
        for p in powers:
            kp = k_samples ** (-float(p))
            cols.append(c * kp)
            cols.append(s * kp)
    A = np.stack(cols, axis=1)
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0.0] = 1.0
    coef, *_ = np.linalg.lstsq(A / norms, s_samples, rcond=None)
    return coef[0] / norms[0]


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
    first = np.r_[True, (p[1:] != p[:-1]) | (omega[1:] != omega[:-1])]
    group = np.cumsum(first) - 1
    c = np.bincount(group, c.real) + 1j * np.bincount(group, c.imag)
    keep = c != 0.0
    return c[keep], p[first][keep], omega[first][keep]


def power_tail(terms, k_split: float) -> tuple[complex, float]:
    """sum c int_K^inf k^-p e^{i omega k} dk over ``terms`` = (c, p, omega)
    arrays, K = ``k_split``: c K^{1-p} E_p(-i omega K), or c K^{1-p} / (p - 1)
    for omega = 0.  Returns (value, sum of |term|).  A surviving omega = 0 term
    with p <= 1 does not decay and raises `ConfigurationError`."""
    c, p, omega = _merged(*terms)
    still = omega == 0.0
    if np.any(still & (p <= 1.0)):
        raise ConfigurationError("diverges on a light-cone edge")
    vals = c * k_split ** (1.0 - p)
    vals[still] /= p[still] - 1.0
    vals[~still] *= expint(p[~still], -1j * k_split * omega[~still])
    return complex(vals.sum()), float(np.abs(vals).sum())


def oscillatory_integral(integrand, terms, k_split: float, tol: float = 1e-10,
                         omitted: float = 0.0) -> tuple[complex, float]:
    """int_0^inf of ``integrand`` (algebraic decay) as a body on [0, k_split]
    plus the exact tail of its expansion ``terms`` (see `power_tail`).

    The body is Gauss-Legendre on panels of pi / max|omega|, PANEL_NODES per
    panel doubled until n and 2n nodes agree.  The estimate, ``omitted`` (the
    caller's bound on what ``terms`` leave out beyond k_split) + |n - 2n| +
    8 eps (sum|panel| + sum|tail term|), must be within tol * sum|panel|;
    otherwise `QuadratureError`.  Returns the 2n-node value and the estimate.
    """
    n_panels = k_split * float(np.abs(terms[2]).max()) / math.pi
    if not n_panels <= MAX_SEGMENTS:
        raise QuadratureError(f"radial integral: {n_panels:.3g} segments "
                              f"> max_segments={MAX_SEGMENTS}")
    n_panels = max(math.ceil(n_panels), 1)
    tail, tail_mag = power_tail(terms, k_split)
    edges = np.linspace(0.0, k_split, n_panels + 1)
    n, coarse, last = PANEL_NODES, segment_integrals(integrand, edges, PANEL_NODES).sum(), math.inf
    while True:
        fine = segment_integrals(integrand, edges, 2 * n)
        body, scale = fine.sum(), float(np.abs(fine).sum())
        diff = abs(body - coarse)
        err = omitted + diff + _EPS * 8.0 * (scale + tail_mag)
        if err <= tol * scale:
            return complex(body + tail), float(err)
        if diff <= 0.5 * tol * scale or not diff < last:  # more nodes cannot help
            raise QuadratureError(f"radial integral: estimate {err:.2e} > tol * scale = "
                                  f"{tol * scale:.2e} at {2 * n} nodes per panel",
                                  value=complex(body + tail), estimate=float(err))
        n, coarse, last = 2 * n, body, diff


def damped_tail_integral(integrand, omega: float) -> tuple[complex, float]:
    """Independent evaluation of int_0^inf f(k) dk by damped-tail extrapolation.

    Integrates f(k) e^{-eta k} (absolutely convergent) for eta = DAMPING_ETA0 / 2^j,
    j < DAMPING_RUNGS, and extrapolates eta -> 0 with the model
    a0 + a1 eta + a2 eta^2 + a3 eta^2 ln eta + a4 eta^3 + a5 eta^3 ln eta.
    One integrand pass over the smallest eta's grid (segments of pi/(omega+1))
    serves every rung; rung eta damps and sums only its prefix, k <= 45/eta.
    Slow but accurate; intended for cross-checks, not production paths.
    """
    h = math.pi / (omega + 1.0)
    etas = DAMPING_ETA0 * 0.5 ** np.arange(DAMPING_RUNGS)
    counts = [int(math.ceil(45.0 / eta / h)) for eta in etas]
    chunk, block = 50000, 2500  # rungs sum per chunk (fixes the bytes); block divides chunk
    seg = np.empty((DAMPING_RUNGS, chunk), dtype=complex)
    vals = np.zeros(DAMPING_RUNGS, dtype=complex)
    for i0 in range(0, counts[-1], block):
        edges = h * np.arange(i0, min(i0 + block, counts[-1]) + 1)
        k, w, half = _segment_nodes(edges, DAMPING_NODES)
        f = np.asarray(integrand(k.ravel())).reshape(k.shape)
        for j, n in enumerate(counts):
            m, c0 = min(n - i0, len(half)), i0 % chunk  # m: rung j's segments here
            if m > 0:
                seg[j, c0 : c0 + m] = (f[:m] * np.exp(-etas[j] * k[:m]) * w).sum(axis=1) * half[:m]
                if i0 + m == n or c0 + m == chunk:  # rung j's chunk is complete
                    vals[j] += seg[j, : c0 + m].sum()
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


def panel_nodes(k_max: float, omega: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, k_max], ``nodes`` per panel, for
    Gaussian envelopes; the panel length resolves oscillations of rate ``omega``.
    More than MAX_SEGMENTS panels raise `QuadratureError` before any allocation."""
    h = math.pi / max(omega, 1.0)
    n_panels = max(int(math.ceil(k_max / h)), 1)
    if n_panels > MAX_SEGMENTS:
        raise QuadratureError(f"Gaussian integral: {n_panels} segments > max_segments={MAX_SEGMENTS}")
    pts, w, half = _segment_nodes(np.linspace(0.0, k_max, n_panels + 1), nodes)
    return pts.ravel(), (w[None, :] * half[:, None]).ravel()
