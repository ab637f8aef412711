"""Detector smearing profiles and their spatial / Fourier representations.

A profile is real and radially symmetric about its center, so its Fourier
transform (convention: ft(k) = int d^dx v(x) e^{i k.x}) factorises as
rho(|k|) e^{i k.center} with rho real.  `radial_ft` returns the rho factor;
the center phase is applied downstream where pairs of profiles meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j1

from .errors import ConfigurationError, QuadratureError

GAUSSIAN = "gaussian"
HARD_SHELL = "hard_shell"


@dataclass(frozen=True)
class RadialSmearing:
    """Radially symmetric coupling profile of a detector.

    The profile multiplies the field.  ``amplitude`` is an overall linear
    factor (1 for the standard profiles).
    """

    kind: str
    dimension: int
    center: tuple[float, ...]
    sigma: float | None = None
    r_inner: float | None = None
    r_outer: float | None = None
    amplitude: float = 1.0

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ConfigurationError(f"dimension must be 2 or 3, got {self.dimension}")
        if len(self.center) != self.dimension:
            raise ConfigurationError(
                f"center has {len(self.center)} components for dimension {self.dimension}"
            )
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not all(map(math.isfinite, self.center + (self.amplitude,))):
            raise ConfigurationError("center and amplitude must be finite")
        # the chained comparisons below also reject NaN
        if self.kind == GAUSSIAN:
            if self.sigma is None or not 0.0 < self.sigma < math.inf:
                raise ConfigurationError("gaussian profile needs finite sigma > 0")
        elif self.kind == HARD_SHELL:
            if self.r_inner is None or self.r_outer is None:
                raise ConfigurationError("hard shell needs r_inner and r_outer")
            if not 0.0 <= self.r_inner < self.r_outer < math.inf:
                raise ConfigurationError("hard shell needs 0 <= r_inner < r_outer < inf")
        else:
            raise ConfigurationError(f"unknown smearing kind {self.kind!r}")

    @classmethod
    def gaussian(cls, sigma, center, dimension, amplitude=1.0):
        return cls(GAUSSIAN, dimension, tuple(center), sigma=float(sigma),
                   amplitude=float(amplitude))

    @classmethod
    def hard_shell(cls, r_inner, r_outer, center, dimension, amplitude=1.0):
        return cls(HARD_SHELL, dimension, tuple(center),
                   r_inner=float(r_inner), r_outer=float(r_outer),
                   amplitude=float(amplitude))

    @classmethod
    def hard_ball(cls, radius, center, dimension, amplitude=1.0):
        return cls.hard_shell(0.0, radius, center, dimension, amplitude)


def spatial_eval(s: RadialSmearing, x) -> float:
    """Profile value v(x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.dimension,):
        raise ConfigurationError(
            f"point has shape {x.shape}, expected ({s.dimension},)"
        )
    r = float(np.linalg.norm(x - np.asarray(s.center)))
    if s.kind == GAUSSIAN:
        return s.amplitude * math.exp(-(r * r) / (2.0 * s.sigma**2))
    return s.amplitude if s.r_inner < r < s.r_outer else 0.0


# the closed shell forms lose ~(eps / x^2) relative digits to cancellation
# at small x = k a; below x = 1e-2 the truncated series is the more
# accurate branch (both sides are ~1e-11 relative at the crossover)
_SHELL_SERIES_CUT = 1e-2


def _ball_ft3(a: float, k: np.ndarray) -> np.ndarray:
    out = np.empty_like(k)
    small = a * k < _SHELL_SERIES_CUT
    ks = k[~small]
    x = a * ks
    out[~small] = 4.0 * np.pi * (np.sin(x) - x * np.cos(x)) / ks**3
    x = a * k[small]
    out[small] = 4.0 * np.pi * a**3 * (
        1.0 / 3.0 - x**2 / 30.0 + x**4 / 840.0 - x**6 / 45360.0
    )
    return out


def _disc_ft2(a: float, k: np.ndarray) -> np.ndarray:
    out = np.empty_like(k)
    small = a * k < _SHELL_SERIES_CUT
    ks = k[~small]
    out[~small] = 2.0 * np.pi * a * j1(a * ks) / ks
    x = a * k[small]
    out[small] = np.pi * a**2 * (1.0 - x**2 / 8.0 + x**4 / 192.0 - x**6 / 9216.0)
    return out


def radial_ft(s: RadialSmearing, k) -> np.ndarray | float:
    """Radial factor rho(k) of the profile's Fourier transform, k >= 0.

    Gaussian: (2 pi sigma^2)^{d/2} e^{-sigma^2 k^2 / 2}.  Hard shell:
    difference of two solid-ball (d=3) or solid-disc (d=2) transforms.
    """
    k_arr = np.asarray(k, dtype=float)
    scalar = k_arr.ndim == 0
    k_arr = np.atleast_1d(k_arr)
    if np.any(k_arr < 0.0):
        raise ConfigurationError("radial_ft requires k >= 0")
    if s.kind == GAUSSIAN:
        out = (2.0 * np.pi * s.sigma**2) ** (s.dimension / 2.0) * np.exp(
            -0.5 * s.sigma**2 * k_arr**2
        )
    elif s.dimension == 3:
        out = _ball_ft3(s.r_outer, k_arr)
        if s.r_inner > 0.0:
            out = out - _ball_ft3(s.r_inner, k_arr)
    else:
        out = _disc_ft2(s.r_outer, k_arr)
        if s.r_inner > 0.0:
            out = out - _disc_ft2(s.r_inner, k_arr)
    out = s.amplitude * out
    return float(out[0]) if scalar else out


def ft_frequencies(s: RadialSmearing) -> tuple[float, ...]:
    """Oscillation frequencies of rho(k) (empty for Gaussian profiles)."""
    if s.kind == GAUSSIAN:
        return ()
    if s.r_inner > 0.0:
        return (s.r_inner, s.r_outer)
    return (s.r_outer,)


def ft_gauss_decay(s: RadialSmearing) -> float:
    """Coefficient g in the envelope factor exp(-g k^2 / 2) of rho."""
    return s.sigma**2 if s.kind == GAUSSIAN else 0.0


def support_radius(s: RadialSmearing) -> float:
    """Radius of the profile's support about its center (inf for Gaussian)."""
    return math.inf if s.kind == GAUSSIAN else s.r_outer


def _panel_gl(lo: float, hi: float, n_panels: int, nodes: int = 12):
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    pts = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x[None, :]
    return pts.ravel(), (np.broadcast_to(w, pts.shape) * half).ravel()


_ORACLE_ROWS = 256  # radial rows per block of ft_oracle's phase matrix


def ft_oracle(s: RadialSmearing, k_vec, tol: float = 1e-11) -> complex:
    """Fourier transform by direct spatial quadrature (radial x angular).

    Deliberately avoids the closed forms of `radial_ft`: both the radial
    and the angular integrals are evaluated by composite Gauss-Legendre
    panels that resolve the e^{i k.x} oscillation, with panel counts
    doubled until two refinements agree.  Test oracle; slow.

    The angular rule is folded onto half its nodes.  They are mirror-symmetric
    (12 per panel, none on the mirror point), and the phase at a mirror node
    is the conjugate (d=3, th <-> pi - th) or the same (d=2, th <-> 2 pi - th),
    so the rule's sum is the real sum of its cos(k r cos th) terms up to rounding.
    """
    k_vec = np.asarray(k_vec, dtype=float)
    if k_vec.shape != (s.dimension,):
        raise ConfigurationError(
            f"wavevector has shape {k_vec.shape}, expected ({s.dimension},)"
        )
    kmag = float(np.linalg.norm(k_vec))

    if s.kind == GAUSSIAN:
        r_lo, r_hi = 0.0, 9.0 * s.sigma
        profile = lambda r: np.exp(-(r * r) / (2.0 * s.sigma**2))
    else:
        r_lo, r_hi = s.r_inner, s.r_outer
        profile = lambda r: np.ones_like(r)

    def evaluate(refine: int) -> float:
        n_r = refine * (int(math.ceil(kmag * (r_hi - r_lo) / math.pi)) + 8)
        n_th = refine * (int(math.ceil(kmag * r_hi / math.pi)) + 8)
        r, wr = _panel_gl(r_lo, r_hi, n_r)
        if s.dimension == 3:
            th, wth = _panel_gl(0.0, math.pi, n_th)
            ang = np.sin(th) * wth
            radial = 2.0 * np.pi * r * r * profile(r) * wr
        else:
            th, wth = _panel_gl(0.0, 2.0 * math.pi, n_th)
            ang = wth
            radial = r * profile(r) * wr
        h = len(th) // 2
        ang = ang[:h] + ang[::-1][:h]
        cos_th = np.cos(th[:h])
        # the phase matrix cos(k r cos th) in row blocks bounds the memory
        acc = np.zeros(h)
        for i0 in range(0, len(r), _ORACLE_ROWS):
            rows = slice(i0, i0 + _ORACLE_ROWS)
            acc += radial[rows] @ np.cos(np.outer(kmag * r[rows], cos_th))
        return float(acc @ ang)

    phase = np.exp(1j * float(np.dot(k_vec, s.center)))
    prev = evaluate(1)
    change = math.inf
    for refine in (2, 4, 8):
        cur = evaluate(refine)
        change = abs(cur - prev)
        if change <= tol * (1.0 + abs(cur)):
            return s.amplitude * cur * phase
        prev = cur
    raise QuadratureError(
        f"ft_oracle did not converge for {s.kind} at |k|={kmag:.6g} (last change {change:.2e})",
        value=s.amplitude * prev * phase,
        estimate=abs(s.amplitude) * change,
    )
