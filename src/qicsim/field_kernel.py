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
bound as the error.  d=2, Gaussian pairings and the rare d=3 pair or radius
whose bound is too loose go through the radial quadrature (`quadrature`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import dawsn, j0

from .errors import ConfigurationError, naming
from .quadrature import damped_tail_integral, oscillatory_integral, panel_nodes
from .smearing import (
    GAUSSIAN,
    HARD_SHELL,
    ft_decay_power,
    ft_frequencies,
    ft_gauss_decay,
    radial_ft,
    support_radius,
)

if TYPE_CHECKING:  # Generator lives one layer up; only attributes are used here
    from .qic import Generator


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


def _kernel(d: int, dx: float, k: np.ndarray) -> np.ndarray:
    if dx == 0.0:
        return np.ones_like(k)
    if d == 3:
        return np.sinc(k * (dx / np.pi))
    return j0(k * dx)


def _radial_integrand(d: int, dx: float, tau: float, profiles, derivative: bool = False):
    """The radial integrand w_d(k) kernel_d(k dx) prod rho(k) e^{i tau k}
    [x i k] with its frequency groups, Gaussian decay and envelope power.

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
    decay = sum(ft_gauss_decay(s) for s in profiles)
    return integrand, groups, decay, max(power, 1.0)


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


def _closed_form_pairing(si, sj, dx: float, tau: float, tol: float):
    """(S_ij, rounding bound) from the finite-part sum, or None where the
    bound exceeds tol times the Cauchy-Schwarz scale sqrt(S_ii S_jj)."""
    val, mag, _ = _finite_part(_shell_terms(dx, tau, (si, sj)))
    scale = 1.0
    for s in (si, sj):
        self_val, self_mag, _ = _finite_part(_shell_terms(0.0, 0.0, (s, s)))
        scale *= max(self_val.real - _ROUNDING * self_mag, 0.0)
    err = _ROUNDING * mag
    return (val, err) if err <= tol * math.sqrt(scale) else None


def _check_pair(gen_i: "Generator", gen_j: "Generator", d: int) -> None:
    for g in (gen_i, gen_j):
        if g.smearing.dimension != d:
            raise ConfigurationError(
                f"generator smearing dimension {g.smearing.dimension} != requested {d}"
            )


def _pair_geometry(gen_i, gen_j):
    ci = np.asarray(gen_i.smearing.center)
    cj = np.asarray(gen_j.smearing.center)
    dx = float(np.linalg.norm(ci - cj))
    tau = gen_j.coupling_time - gen_i.coupling_time  # e^{-ik(t_i - t_j)}
    return dx, tau


def pairing_detail(gen_i, gen_j, d: int, tol: float = 1e-10) -> tuple[complex, float]:
    """Pairing S_ij with its error estimate: for two d=3 hard shells the
    exact finite-part sum and its rounding bound, else (or where that bound
    exceeds tol sqrt(S_ii S_jj)) the oscillatory quadrature's estimate."""
    _check_pair(gen_i, gen_j, d)
    dx, tau = _pair_geometry(gen_i, gen_j)
    si, sj = gen_i.smearing, gen_j.smearing
    if d == 3 and si.kind == sj.kind == HARD_SHELL:
        closed = _closed_form_pairing(si, sj, dx, tau, tol)
        if closed is not None:
            return closed
    integrand, groups, decay, power = _radial_integrand(
        d, dx, tau, (gen_i.smearing, gen_j.smearing))
    return oscillatory_integral(integrand, groups, phase_freq=tau, gauss_decay=decay,
                                tol=tol, envelope_power=power)


def pairing(gen_i, gen_j, d: int, tol: float = 1e-10) -> complex:
    """Vacuum pairing <0| O_i O_j |0> as a complex number."""
    return pairing_detail(gen_i, gen_j, d, tol)[0]


def pairing_damped(gen_i, gen_j, d: int) -> tuple[complex, float]:
    """Independent damped-tail evaluation of the pairing (cross-check path)."""
    _check_pair(gen_i, gen_j, d)
    si, sj = gen_i.smearing, gen_j.smearing
    dx, tau = _pair_geometry(gen_i, gen_j)
    integrand, groups, decay, _ = _radial_integrand(d, dx, tau, (si, sj))
    if decay > 0.0:
        # absolutely convergent already; a single plain evaluation suffices
        return oscillatory_integral(integrand, groups, phase_freq=tau, gauss_decay=decay,
                                    tol=1e-12)
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


def mode_function_by_quadrature(gen, t: float, dx: float, d: int, derivative: bool = False,
                                tol: float = 1e-10) -> tuple[complex, float]:
    """I(t, x) (or its exact dI/dt) at distance ``dx = |x - x0|`` from the
    generator's center, by the radial oscillatory quadrature.

    Works for every supported profile; it cross-checks the closed forms (d=3
    Gaussians and hard shells) and fixed-node rule (d=2) of `ModeProfileEvaluator`.
    """
    s = gen.smearing
    if s.dimension != d:
        raise ConfigurationError("smearing dimension mismatch")
    tau = t - gen.coupling_time  # e^{-ik(t0 - t)} = e^{ik tau}
    integrand, groups, decay, power = _radial_integrand(d, float(dx), tau, (s,), derivative)
    return oscillatory_integral(integrand, groups, phase_freq=tau, gauss_decay=decay,
                                tol=tol, envelope_power=power)


class ModeProfileEvaluator:
    """Evaluates I(t, .) and dI/dt(t, .) for one generator on many radii.

    This is the one mode-function path: Gaussian profiles use the closed
    form (d=3) or a fixed node set (d=2), hard shells the exact finite-part
    sum (d=3) or the radial quadrature (d=2); a single radius r is
    ``evaluate([r])``.  The node set is fixed at construction (from the
    largest radius that will be requested), so results are independent of
    how callers chunk the radii -- grid evaluations stay bit-identical under
    any threading.

    A d=3 hard shell's value at r is taken from the finite-part sum where
    its rounding bound is within tol times the sum of |terms| at r = 0 for
    the same generator, time and quantity (a scale that does not vanish
    where the value does); elsewhere (r -> 0, where the terms cancel like
    1/r) the quadrature serves that radius.  A radius on a light-cone edge
    where I or dI/dt diverges raises `ConfigurationError`.
    """

    def __init__(self, gen, t: float, d: int, dx_max: float, tol: float = 1e-10):
        self.gen = gen
        self.t = float(t)
        self.d = int(d)
        self.tol = tol
        s = gen.smearing
        self._gaussian_closed = s.kind == GAUSSIAN and d == 3
        self._nodes = None
        self._shell_scale = None
        if s.kind == HARD_SHELL and d == 3:
            tau = self.t - gen.coupling_time
            self._shell_scale = tuple(_finite_part(_shell_terms(0.0, tau, (s,), der))[1]
                                      for der in (False, True))
        if s.kind == GAUSSIAN and d == 2:
            tau = self.t - gen.coupling_time
            g = ft_gauss_decay(s)
            k_max = math.sqrt(184.0 / g)
            omega = abs(tau) + dx_max
            k, w = panel_nodes(k_max, omega)
            # not `_radial_integrand`: this product order fixes the grid bytes
            base = w * _measure(2, k) * radial_ft(s, k) * np.exp(1j * tau * k)
            self._nodes = (k, base, base * (1j * k))

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
        I = np.empty(u.shape, dtype=complex)
        dI = np.empty(u.shape, dtype=complex)
        if self._nodes is not None:
            k, base, base_dt = self._nodes
            chunk = max(1, int(4e6 // max(len(k), 1)))
            for i0 in range(0, len(u), chunk):
                block = u[i0 : i0 + chunk]
                n = len(block)
                # a one-row product takes BLAS's dot path, whose last bits
                # differ from the matrix-vector path of every longer block
                M = j0(np.outer(block if n > 1 else np.repeat(block, 2), k))
                I[i0 : i0 + n] = (M @ base)[:n]
                dI[i0 : i0 + n] = (M @ base_dt)[:n]
            return I, dI
        # hard shells: per-radius finite-part sum (d=3) or quadrature
        tau = self.t - gen.coupling_time
        for i, r in enumerate(u):
            for out, derivative in ((I, False), (dI, True)):
                where = (f"{'dI/dt' if derivative else 'I'} at r={float(r)}, t={self.t}, "
                         f"coupling_time={gen.coupling_time}")
                if self._shell_scale is not None:
                    val, mag, divergent = _finite_part(
                        _shell_terms(float(r), tau, (gen.smearing,), derivative))
                    if divergent:
                        raise ConfigurationError(f"{where}: diverges on a light-cone edge")
                    if _ROUNDING * mag <= self.tol * self._shell_scale[derivative]:
                        out[i] = val
                        continue
                with naming(where):
                    out[i], _ = mode_function_by_quadrature(gen, self.t, r, self.d,
                                                            derivative, self.tol)
        return I, dI
