"""Vacuum pairings and retarded mode functions of the massless scalar field.

Every quantity here is a one-dimensional radial momentum integral.  With
rho_i the radial Fourier factor of generator i's profile (see `smearing`),
dx the distance between two centers and dt a time difference, the pairing

    S_ij = <0| O_i O_j |0>
         = C_d int_0^inf dk w_d(k) kernel_d(k dx) rho_i(k) rho_j(k) e^{-i k dt}

uses the angular kernels sin(k dx)/(k dx) for d=3 and J0(k dx) for d=2,
with w_3(k) = k / (4 pi^2) and w_2(k) = 1 / (4 pi) absorbing the measure.
The mode function I(t, x) of a single generator is the same integral with
one rho factor and e^{-i k (t0 - t)}; its exact time derivative multiplies
the integrand by i k.

From S_ij alone follow both commutator functionals:
(1/i)<[O_i, O_j]> = 2 Im S_ij and (1/i)<[O_i, f(O_j)]> = 2 Re S_ij.

In d=3 a hard shell's rho, and with it every integrand built from it, is a
finite sum of terms c k^-p e^{i omega k}; d=3 hard-shell pairings and mode
functions are the exact sum of those terms' finite parts, with a rounding
bound as the error.  Every integrand with a Gaussian factor goes through
one certified node rule (`_certified_nodes`); d=2 hard shells and the rare
d=3 pair or radius whose bound is too loose go through the oscillatory
quadrature (`quadrature`).  One function, `radial_integral`, makes that
choice for every pairing and mode function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from scipy.special import dawsn, j0

from .errors import ConfigurationError, QuadratureError, naming
from .quadrature import PANEL_NODES, damped_tail_integral, oscillatory_integral, panel_nodes
from .smearing import (
    GAUSSIAN,
    HARD_SHELL,
    ft_decay_power,
    ft_frequencies,
    ft_gauss_decay,
    radial_ft,
    support_radius,
)


@dataclass
class PairingMatrix:
    """Hermitian Gram matrix of vacuum pairings between generators.

    ``errors`` carries the achieved quadrature error estimate per entry so
    downstream consumers can assert accuracy instead of assuming it.
    """

    entries: np.ndarray
    errors: np.ndarray
    dimension: int

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def max_error(self) -> float:
        return float(self.errors.max()) if self.errors.size else 0.0


def _measure(d: int, k: np.ndarray) -> np.ndarray:
    if d == 3:
        return k / (4.0 * np.pi**2)
    return np.full_like(k, 1.0 / (4.0 * np.pi))


def _kernel(d: int, dx: float | np.ndarray, k: np.ndarray) -> np.ndarray:
    if np.ndim(dx) == 0 and dx == 0.0:
        return np.ones_like(k)
    if d == 3:
        return np.sinc(k * (dx / np.pi))
    return j0(k * dx)


def _radial_integrand(d: int, dx: float, tau: float, profiles, derivative: bool = False):
    """The radial integrand w_d(k) kernel_d(k dx) prod rho(k) e^{i tau k}
    [x i k] with its frequency groups and envelope power.

    The power counts rho's decay, the measure's growth k^{d-2}, the kernel's
    decay k^{-(d-1)/2} (dx > 0) and one power lost to the i k factor.
    """
    def integrand(k):
        out = _measure(d, k) * _kernel(d, dx, k)
        for s, run in groupby(profiles):  # a self-pairing transforms its profile once
            rho = radial_ft(s, k)
            for _ in run:
                out *= rho  # in place, as numpy does for a chained product
            del rho  # freed before the next transform, which sets the peak memory
        out = out * np.exp(1j * tau * k)
        return out * (1j * k) if derivative else out

    groups = [ft_frequencies(s) for s in profiles]
    power = sum(ft_decay_power(s) for s in profiles) + (2.0 - d) - float(derivative)
    if dx > 0.0:
        groups.append((dx,))
        power += (d - 1) / 2.0
    return integrand, groups, max(power, 1.0)


def _kernel_sums(d: int, r: np.ndarray, k: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows sum_k kernel_d(k r) weights at radii r, one complex column per
    pair of real weight columns.  einsum's own loop, unlike BLAS, gives each
    row the same bits whatever the block height."""
    return np.einsum("ij,jk->ik", _kernel(d, r[:, None], k), weights).view(complex)


def _certified_nodes(d: int, tau: float, profiles, radii: np.ndarray, tol: float, derivatives):
    """The rule for integrands with a Gaussian factor: panels to the envelope's
    e^-40 point resolving |tau| + max radius + each shell's largest radius,
    PANEL_NODES per panel doubled until the integrals at ``radii`` (one column
    per entry of ``derivatives``) agree with 2n nodes within tol * sum|w f|, f
    the r = 0 integrand (>= |I| at every r: |kernel| <= 1).  Returns the n-node
    (k, real weights), the 2n-node sums and |n - 2n| + 8 eps sum|w f| per column."""
    k_max = math.sqrt(80.0 / sum(ft_gauss_decay(s) for s in profiles))
    omega = abs(tau) + float(radii.max()) + sum(max(ft_frequencies(s), default=0.0)
                                                for s in profiles)

    def rule(n):
        k, w = panel_nodes(k_max, omega, n)
        f = [w * _radial_integrand(d, 0.0, tau, profiles, der)[0](k) for der in derivatives]
        return k, np.stack(f, axis=1).view(float)

    n, coarse, last = PANEL_NODES, rule(PANEL_NODES), math.inf
    while True:
        fine = rule(2 * n)
        sums = _kernel_sums(d, radii, *fine)
        diff = np.abs(_kernel_sums(d, radii, *coarse) - sums).max(axis=0)
        scale = np.abs(coarse[1].view(complex)).sum(axis=0)
        excess = float(np.max(diff - tol * scale))
        if excess <= 0.0:
            return coarse, sums, diff + _ROUNDING * scale
        if not excess < last:  # down to rounding, or NaN: tol is out of reach
            raise QuadratureError(f"Gaussian integral: {n} and {2 * n} nodes per panel "
                                  f"differ by {diff.max():.2e} (tol={tol:.1e})")
        n, coarse, last = 2 * n, fine, excess


# --------------------------------------------------------------------------
# d=3 hard shells: exact finite-part sums
# --------------------------------------------------------------------------

_PSI = [-0.5772156649015329 + sum(1.0 / j for j in range(1, n + 1)) for n in range(8)]
_I_POW = (1.0, 1j, -1.0, -1j)
_ROUNDING = 8.0 * np.finfo(float).eps  # padded relative rounding of one term


def _rho_terms(s) -> list:
    """rho of a d=3 hard shell as terms (c, p, omega) of c k^-p e^{i omega k}:
    4 pi (sin ka - ka cos ka) / k^3 = sum_{e=+-1} e^{i e a k} (-2 pi i e k^-3 - 2 pi a k^-2)."""
    terms = []
    for a, sign in ((s.r_outer, s.amplitude), (s.r_inner, -s.amplitude)):
        if a > 0.0:
            for e in (1.0, -1.0):
                terms += [(-2j * math.pi * e * sign, 3, e * a), (-2.0 * math.pi * a * sign, 2, e * a)]
    return terms


def _shell_terms(dx: float, tau: float, profiles, derivative: bool = False) -> list:
    """The d=3 hard-shell integrand of `_radial_integrand` as a finite sum of
    terms (c, p, omega), each c k^-p e^{i omega k}: the measure, the phase,
    [i k,] each rho, and sin(k dx)/(k dx) = sum_e e^{i e dx k} e / (2 i dx k)."""
    terms = [(1j / (4.0 * math.pi**2) if derivative else 1.0 / (4.0 * math.pi**2),
              -2 if derivative else -1, tau)]
    factors = [_rho_terms(s) for s in profiles]
    if dx > 0.0:
        factors.append([(e / (2j * dx), 1, e * dx) for e in (1.0, -1.0)])
    for factor in factors:
        terms = [(c * cf, p + pf, w + wf) for c, p, w in terms for cf, pf, wf in factor]
    return terms


def _finite_part(terms) -> tuple[complex, float, bool]:
    """Sum of the finite parts of int_0^inf c k^-p e^{i omega k} dk.

    Per term, with n = p - 1 >= 0: (i omega)^n / n! [psi(n+1) - ln|omega|
    + i pi/2 sgn omega]; with m = -p >= 0: m! (i/omega)^{m+1}; zero for
    omega = 0.  The divergent parts at k -> 0 cancel because the integrand
    is regular there, so the sum is the integral.  Terms merge only on
    exactly equal (p, omega).  Returns (value, sum of |term|, divergent):
    divergent flags a surviving omega = 0 term with p <= 1, which does not
    decay at k -> inf.
    """
    merged: dict = {}
    for c, p, w in terms:
        merged[p, w] = merged.get((p, w), 0.0) + c
    re, im, mag = [], [], []
    divergent = False
    for (p, w), c in merged.items():
        if w == 0.0:
            divergent = divergent or (p <= 1 and c != 0.0)
            continue
        if p >= 1:
            n = p - 1
            f = _I_POW[n % 4] * w**n / math.factorial(n) * complex(
                _PSI[n] - math.log(abs(w)), math.copysign(0.5 * math.pi, w))
        else:
            f = math.factorial(-p) * _I_POW[(1 - p) % 4] / w ** (1 - p)
        term = c * f
        re.append(term.real)
        im.append(term.imag)
        mag.append(abs(term))
    return complex(math.fsum(re), math.fsum(im)), math.fsum(mag), divergent


def _finite_part_applies(d: int, profiles) -> bool:
    return d == 3 and all(s.kind == HARD_SHELL for s in profiles)


def radial_integral(d: int, dx: float, tau: float, profiles, derivative: bool = False,
                    tol: float = 1e-10, scale: float | None = None) -> tuple[complex, float]:
    """The radial integral of `_radial_integrand` with its error estimate.

    A Gaussian factor selects `_certified_nodes` and its 2n-node sum.  Given
    a ``scale`` and only d=3 hard shells, the exact finite-part sum serves
    wherever its rounding bound 8 eps sum|terms| is within ``tol * scale``;
    a sum that diverges (a light-cone edge), or a failed bound where the sum
    at dx = 0 diverges (terms cancel like 1/dx there), raises
    `ConfigurationError`.  Everything else goes through the oscillatory
    quadrature, whose estimate is returned.
    """
    if any(s.kind == GAUSSIAN for s in profiles):
        _, sums, estimate = _certified_nodes(d, tau, profiles, np.array([dx]), tol, (derivative,))
        return complex(sums[0, 0]), float(estimate[0])
    if scale is not None and _finite_part_applies(d, profiles):
        val, mag, divergent = _finite_part(_shell_terms(dx, tau, profiles, derivative))
        if divergent:
            raise ConfigurationError("diverges on a light-cone edge")
        if _ROUNDING * mag <= tol * scale:
            return val, _ROUNDING * mag
        if _finite_part(_shell_terms(0.0, tau, profiles, derivative))[2]:
            raise ConfigurationError("too close to a centre on a light-cone edge, where it diverges")
    integrand, groups, power = _radial_integrand(d, dx, tau, profiles, derivative)
    return oscillatory_integral(integrand, groups, phase_freq=tau, tol=tol, envelope_power=power)


def _pair_geometry(gen_i, gen_j):
    ci = np.asarray(gen_i.smearing.center)
    cj = np.asarray(gen_j.smearing.center)
    dx = float(np.linalg.norm(ci - cj))
    tau = gen_j.coupling_time - gen_i.coupling_time  # e^{-ik(t_i - t_j)}
    return dx, tau


def pairing_detail(gen_i, gen_j, d: int, tol: float = 1e-10) -> tuple[complex, float]:
    """Pairing S_ij with its error estimate (`radial_integral`); for two d=3
    hard shells the finite-part sum's scale is sqrt(S_ii S_jj), from the
    self-pairings' sums less their rounding bounds."""
    profiles = (gen_i.smearing, gen_j.smearing)
    if {s.dimension for s in profiles} != {d}:
        raise ConfigurationError(f"smearing dimensions {[s.dimension for s in profiles]} != {d}")
    dx, tau = _pair_geometry(gen_i, gen_j)
    scale = None
    if _finite_part_applies(d, profiles):
        selfs = [_finite_part(_shell_terms(0.0, 0.0, (s, s))) for s in profiles]
        scale = math.sqrt(math.prod(max(v.real - _ROUNDING * m, 0.0) for v, m, _ in selfs))
    return radial_integral(d, dx, tau, profiles, tol=tol, scale=scale)


def pairing(gen_i, gen_j, d: int, tol: float = 1e-10) -> complex:
    """Vacuum pairing <0| O_i O_j |0> as a complex number."""
    return pairing_detail(gen_i, gen_j, d, tol)[0]


def pairing_damped(gen_i, gen_j, d: int) -> tuple[complex, float]:
    """Independent damped-tail evaluation of the pairing (cross-check path)."""
    si, sj = gen_i.smearing, gen_j.smearing
    if {si.dimension, sj.dimension} != {d}:
        raise ConfigurationError(f"smearing dimensions {[si.dimension, sj.dimension]} != {d}")
    dx, tau = _pair_geometry(gen_i, gen_j)
    if GAUSSIAN in (si.kind, sj.kind):
        # absolutely convergent already; a single plain evaluation suffices
        return radial_integral(d, dx, tau, (si, sj), tol=1e-12)
    integrand = _radial_integrand(d, dx, tau, (si, sj))[0]
    omega = abs(tau) + dx + sum(ft_frequencies(si)) + sum(ft_frequencies(sj))
    return damped_tail_integral(integrand, omega)


def pairing_matrix(generators, d: int, tol: float = 1e-10) -> PairingMatrix:
    """Build the full pairing matrix; upper triangle computed, mirrored by
    Hermitian symmetry (each entry's error estimate is mirrored too)."""
    n = len(generators)
    entries = np.zeros((n, n), dtype=complex)
    errors = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            with naming(f"pairing ({i}, {j})"):
                val, err = pairing_detail(generators[i], generators[j], d, tol)
            entries[i, j] = val
            errors[i, j] = err
            if j != i:
                entries[j, i] = np.conjugate(val)
                errors[j, i] = err
    return PairingMatrix(entries=entries, errors=errors, dimension=d)


def spacelike_separated(gen_i, gen_j) -> bool:
    """True when the supports cannot be connected by a causal curve.

    Gaussian profiles have unbounded support and never qualify.  For two
    annular supports the set distance is the largest of: outer surfaces
    apart, or one annulus inside the other's hole.
    """
    si, sj = gen_i.smearing, gen_j.smearing
    if not (math.isfinite(support_radius(si)) and math.isfinite(support_radius(sj))):
        return False
    dx, _ = _pair_geometry(gen_i, gen_j)
    dist = max(
        0.0,
        dx - si.r_outer - sj.r_outer,
        si.r_inner - dx - sj.r_outer,
        sj.r_inner - dx - si.r_outer,
    )
    dt = abs(gen_i.coupling_time - gen_j.coupling_time)
    return dist > dt


# --------------------------------------------------------------------------
# mode functions
# --------------------------------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)


def _E(a):
    # e^{-a^2} (1 - Erf(i a)) rewritten through the Dawson function; stays
    # bounded where Erf(i a) alone overflows
    return np.exp(-np.square(a)) - 2j / _SQRT_PI * dawsn(a)


def _gaussian_mode_closed(sigma: float, T, dx, amplitude: float = 1.0):
    """Closed-form I and dI/dt for a Gaussian profile in d = 3.

    T = t0 - t; dx = |x - x0|; vectorised over dx (T scalar).
    Small dx uses the Taylor form of the finite difference of E to avoid
    0/0 cancellation.
    """
    dx = np.asarray(dx, dtype=float)
    s2 = math.sqrt(2.0) * sigma
    delta = dx / s2
    a0 = T / s2

    I = np.empty(dx.shape, dtype=complex)
    dI = np.empty(dx.shape, dtype=complex)

    small = delta < 1e-3
    if np.any(small):
        d2 = np.square(delta[small])
        E0 = _E(a0)
        E1 = -2.0 * a0 * E0 - 2j / _SQRT_PI
        E2 = -2.0 * E0 - 2.0 * a0 * E1
        E3 = -4.0 * E1 - 2.0 * a0 * E2
        E4 = -6.0 * E2 - 2.0 * a0 * E3
        I[small] = (1j * sigma / (2.0 * math.sqrt(2.0))) * (E1 + d2 / 6.0 * E3)
        dI[small] = -(1j / 4.0) * (E2 + d2 / 6.0 * E4)
    if np.any(~small):
        dxl = dx[~small]
        am = (T - dxl) / s2
        ap = (T + dxl) / s2
        Em, Ep_ = _E(am), _E(ap)
        dEm = -2.0 * am * Em - 2j / _SQRT_PI
        dEp = -2.0 * ap * Ep_ - 2j / _SQRT_PI
        pref = sigma**2 / (4j * dxl)
        I[~small] = pref * (Em - Ep_)
        dI[~small] = pref * (-1.0 / s2) * (dEm - dEp)
    return amplitude * I, amplitude * dI


class ModeProfileEvaluator:
    """Evaluates I(t, .) and dI/dt(t, .) for one generator on many radii.

    This is the one mode-function path: Gaussian profiles use the closed
    form (d=3) or one node set (d=2), hard shells the exact finite-part
    sum (d=3) or the radial quadrature (d=2); a single radius r is
    ``evaluate([r])``.  The d=2 node set is the n-node set of the Gaussian
    pairings' rule (`_certified_nodes`), certified at construction at r = 0
    and the largest radius that will be requested.  Results are independent
    of how callers chunk the radii -- grid evaluations stay bit-identical
    under any threading.

    Hard shells go through `radial_integral` radius by radius.  In d=3 its
    scale is the sum of |terms| at r = 0 for the same generator, time and
    quantity (a scale that does not vanish where the value does), so the
    quadrature serves only where the terms cancel (r -> 0, like 1/r).  A
    radius on a light-cone edge where I or dI/dt diverges raises
    `ConfigurationError`.
    """

    def __init__(self, gen, t: float, d: int, dx_max: float, tol: float = 1e-10):
        self.gen = gen
        self.t = float(t)
        self.d = int(d)
        self.tol = tol
        self._tau = tau = self.t - gen.coupling_time  # e^{-ik(t0 - t)} = e^{ik tau}
        s = gen.smearing
        self._gaussian_closed = s.kind == GAUSSIAN and d == 3
        self._shell_scale = (None, None)
        if _finite_part_applies(d, (s,)):
            self._shell_scale = tuple(_finite_part(_shell_terms(0.0, tau, (s,), der))[1]
                                      for der in (False, True))
        radii = np.array([0.0, dx_max])
        with naming(f"mode function at t={self.t}, coupling_time={gen.coupling_time}"):
            self._nodes = (_certified_nodes(2, tau, (s,), radii, tol, (False, True))[0]
                           if s.kind == GAUSSIAN and d == 2 else None)

    def evaluate(self, dx) -> tuple[np.ndarray, np.ndarray]:
        """I and dI/dt at the radii ``dx`` (any shape), evaluated once per
        distinct radius and scattered back (lattice grids share radii)."""
        dx = np.asarray(dx, dtype=float)
        u, inv = np.unique(dx, return_inverse=True)
        I, dI = self._evaluate_distinct(u)
        return I[inv].reshape(dx.shape), dI[inv].reshape(dx.shape)

    def _evaluate_distinct(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gen = self.gen
        if self._gaussian_closed:
            T = gen.coupling_time - self.t
            return _gaussian_mode_closed(gen.smearing.sigma, T, u, gen.smearing.amplitude)
        if self._nodes is not None:
            k, weights = self._nodes
            chunk = max(1, int(4e6 // len(k)))
            sums = np.empty((len(u), 2), dtype=complex)
            for i0 in range(0, len(u), chunk):
                sums[i0 : i0 + chunk] = _kernel_sums(2, u[i0 : i0 + chunk], k, weights)
            return sums[:, 0], sums[:, 1]
        I = np.empty(u.shape, dtype=complex)
        dI = np.empty(u.shape, dtype=complex)
        # hard shells: per-radius finite-part sum (d=3) or quadrature
        for i, r in enumerate(u):
            for out, derivative in ((I, False), (dI, True)):
                with naming(f"{'dI/dt' if derivative else 'I'} at r={float(r)}, t={self.t}, "
                            f"coupling_time={gen.coupling_time}"):
                    out[i], _ = radial_integral(self.d, float(r), self._tau, (gen.smearing,),
                                                derivative, self.tol, self._shell_scale[derivative])
        return I, dI
