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
* Algebraic decay: split [0, inf) into half-period segments of the fastest
  oscillation, integrate each with Gauss-Legendre, and accelerate the
  partial sums.  Two accelerators are used:
    - Wynn's epsilon algorithm, which is exact for superpositions of
      geometric sequences and therefore excels on purely oscillatory tails;
    - a least-squares tail model with the *known* combination frequencies
      (every integrand here is a finite product of factors whose frequency
      content we know exactly), which handles the monotone component that
      appears whenever a combination frequency vanishes, e.g. for the
      self-pairing of a shell.
  The combination spectrum decides which accelerator is trusted; their
  window-to-window disagreement is the reported error estimate.
* `damped_tail_integral` is an intentionally independent cross-check: it
  multiplies the integrand by e^{-eta k}, integrates the now absolutely
  convergent integral for a ladder of eta values, and extrapolates eta -> 0
  with a log-aware model (the eta^2 ln eta term is real; a pure polynomial
  extrapolation stalls on it).  One integrand pass serves all eta rungs.
  It shares no acceleration code with the primary path and is used by the
  test suite as the second quadrature scheme.

All routines return ``(value, error_estimate)`` so callers can propagate
achieved accuracy instead of assuming it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError

MAX_SEGMENTS = 1 << 17  # segment cap of `oscillatory_integral` and `panel_nodes`
PANEL_NODES = 8  # starting Gauss-Legendre nodes per `panel_nodes` panel (doubled until certified)
DAMPING_ETA0 = 0.04  # largest damping rate of `damped_tail_integral`
DAMPING_RUNGS = 7  # its damping rates: DAMPING_ETA0 / 2^j, j < DAMPING_RUNGS
DAMPING_NODES = 24  # its Gauss-Legendre nodes per segment

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


def combination_frequencies(freq_groups, phase_freq: float) -> np.ndarray:
    """Distinct |frequency| values of the integrand's trig decomposition.

    Each factor of the integrand contributes one frequency out of its group
    with either sign; the overall phase e^{i tau k} contributes ``phase_freq``
    with fixed sign.  The returned set governs both the segment length and
    the tail-model basis.
    """
    combos = {float(phase_freq)}
    for group in freq_groups:
        group = [g for g in group if g > 0.0]
        if not group:
            continue
        combos = {c + s * g for c in combos for g in group for s in (1.0, -1.0)}
    return np.unique(np.round(np.abs(np.fromiter(combos, float)), 12))


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


def oscillatory_integral(
    integrand,
    freq_groups,
    phase_freq: float = 0.0,
    tol: float = 1e-10,
    envelope_power: float = 3.0,
) -> tuple[complex, float]:
    """Integrate ``integrand`` (algebraic decay) over [0, inf) to the requested tolerance.

    Parameters
    ----------
    integrand : callable
        Vectorised k -> complex values; smooth on (0, inf), finite at 0.
    freq_groups : sequence of sequences
        Oscillation frequencies per factor (see `combination_frequencies`).
    phase_freq : float
        Signed frequency tau of the explicit e^{i tau k} phase.
    tol : float
        Requested error, relative to the integral's natural magnitude.
    envelope_power : float
        Asymptotic algebraic decay exponent of the envelope; sets the
        powers used in the tail model.

    Returns
    -------
    (value, error_estimate)
    """
    omega = abs(phase_freq) + sum(max(g) for g in freq_groups if len(g))
    if omega <= 0.0:
        raise QuadratureError("integrand does not oscillate")

    h = math.pi / omega
    combos = combination_frequencies(freq_groups, phase_freq)
    powers = (envelope_power - 1.0, envelope_power, envelope_power + 1.0)

    n = 1024
    seg = segment_integrals(integrand, h * np.arange(n + 1))
    val_prev = None
    while True:
        S = np.cumsum(seg)
        k_edges = h * np.arange(1, n + 1)
        scale = max(np.abs(S).max(), 1e-300)
        window = n // 2
        resolvable = 8.0 * math.pi / (window * h)
        dc_like = combos[combos < resolvable]
        osc = combos[combos >= resolvable]

        if len(dc_like):
            # monotone tail component present: trust the frequency-aware
            # tail model, estimate error from a closer-in window
            val = _tail_model_intercept(k_edges[n - window :], S[n - window :], osc, powers)
            val_b = _tail_model_intercept(
                k_edges[n - window : n - window // 2],
                S[n - window : n - window // 2],
                osc,
                powers,
            )
            err = abs(val - val_b) + 1e-15 * scale
        else:
            # contiguous windows only: decimated windows alias fast
            # components onto the constant term and spoil the estimates
            ests = [
                wynn_epsilon(S[n - 80 : n])[-1],
                wynn_epsilon(S[n - 48 : n])[-1],
                wynn_epsilon(S[n - 117 : n - 37])[-1],
            ]
            val = ests[0]
            spread = max(abs(e - val) for e in ests[1:])
            # correlated windows can agree while wrong: before any block
            # doubling has confirmed the value, pad the spread
            if val_prev is None:
                err = 4.0 * spread + 1e-15 * scale
            else:
                err = max(spread, abs(val - val_prev)) + 1e-15 * scale
        if err <= tol * scale:
            return complex(val), float(err)
        if 2 * n > MAX_SEGMENTS:
            raise QuadratureError(
                f"radial integral stalled at {n} segments "
                f"(err~{err:.2e}, scale~{scale:.2e}, tol={tol:.1e})",
                value=complex(val),
                estimate=float(err),
            )
        ext = segment_integrals(integrand, h * np.arange(n, 2 * n + 1))
        seg = np.concatenate([seg, ext])
        n *= 2
        val_prev = val


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
