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

A hard shell's integrand beyond any k_split is a finite sum of terms
c k^-p e^{i omega k}, built by `_expansion` in both dimensions: exact in
d=3, Hankel expansions of J1 and J0 (A&S 9.2.5) or angular averages in
d=2.  d=3 hard-shell pairings and mode functions are the exact sum of the
terms' finite parts (k_split = inf), with a rounding bound as the error.
Everything else runs on one node-doubling rule (`quadrature.certified_rule`):
integrands with a Gaussian factor through `_certified_nodes`, d=2 hard
shells (and the rare d=3 pair or radius whose bound is too loose) as a
body on [0, k_split] plus the exact tail of the terms
(`quadrature.oscillatory_integral`).  One function, `radial_integral`,
makes that choice for every pairing and mode function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from scipy.special import dawsn, digamma, j0

from .errors import ConfigurationError, QuadratureError, naming
from .quadrature import (DAMPING_NODES, ROUNDING, _gauss_legendre, _merged, certified_rule,
                         damped_tail_integral, oscillatory_integral, power_tails)
from .smearing import GAUSSIAN, HARD_SHELL, ft_frequencies, ft_gauss_decay, radial_ft


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
    """The radial integrand w_d(k) kernel_d(k dx) prod rho(k) e^{i tau k} [x i k]."""
    def integrand(k):
        out = _measure(d, k) * _kernel(d, dx, k)
        for s, run in groupby(profiles):  # a self-pairing transforms its profile once
            rho = radial_ft(s, k)
            for _ in run:
                out *= rho  # in place, as numpy does for a chained product
            del rho  # freed before the next transform, which sets the peak memory
        out = out * np.exp(1j * tau * k)
        return out * (1j * k) if derivative else out

    return integrand


def _kernel_sums(d: int, r: np.ndarray, k: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows sum_k kernel_d(k r) weights at radii r, one complex column per
    pair of real weight columns, in blocks of <= 4e6 kernel values.  einsum's
    own loop, unlike BLAS, gives each row the same bits whatever the block height."""
    chunk = max(1, int(4e6 // len(k)))
    sums = np.empty((len(r), weights.shape[1] // 2), dtype=complex)
    for i0 in range(0, len(r), chunk):
        sums[i0 : i0 + chunk] = np.einsum("ij,jk->ik", _kernel(d, r[i0 : i0 + chunk, None], k),
                                          weights).view(complex)
    return sums


def _certified_nodes(d: int, tau: float, profiles, radii: np.ndarray, tol: float, derivatives):
    """`certified_rule` for integrands with a Gaussian factor: panels to the
    envelope's e^-40 point resolving |tau| + max radius + each shell's largest
    radius, one column per entry of ``derivatives``, the integrals at
    ``radii`` and sum|w f| of the r = 0 integrand f (>= |I| at every r:
    |kernel| <= 1).  Returns the n-node (k, real weights), the 2n-node sums
    and the estimate |n - 2n| + ROUNDING sum|w f| per column."""
    k_max = math.sqrt(80.0 / sum(ft_gauss_decay(s) for s in profiles))
    omega = abs(tau) + float(radii.max()) + sum(max(ft_frequencies(s), default=0.0)
                                                for s in profiles)

    def weighted(k, w):
        return np.stack([w * _radial_integrand(d, 0.0, tau, profiles, der)(k)
                         for der in derivatives], axis=1)

    (k, wf), sums, estimate = certified_rule(
        weighted, lambda k, wf: _kernel_sums(d, radii, k, wf.view(float)), k_max, omega, tol)
    return (k, wf.view(float)), sums, estimate


# --------------------------------------------------------------------------
# d=3 hard shells: exact finite-part sums
# --------------------------------------------------------------------------

_I_POW = (1.0, 1j, -1.0, -1j)


def _finite_part(terms) -> tuple[complex, float, bool]:
    """Sum of the finite parts of int_0^inf c k^-p e^{i omega k} dk over ``terms``.

    Per term, with n = p - 1 >= 0: (i omega)^n / n! [psi(n+1) - ln|omega|
    + i pi/2 sgn omega]; with m = -p >= 0: m! (i/omega)^{m+1}; zero for
    omega = 0.  The divergent parts at k -> 0 cancel because the integrand
    is regular there, so the sum is the integral.  Terms merge on exactly
    equal (p, omega) (`quadrature._merged`).  Returns (value, sum of |term|,
    divergent): divergent flags a surviving omega = 0 term with p <= 1, which
    does not decay at k -> inf.
    """
    c, p, omega = _merged(*terms[:3])
    divergent = bool(np.any((omega == 0.0) & (p <= 1.0)))
    re, im, mag = [], [], []
    psi = digamma(np.maximum(p, 1.0)).tolist()  # psi(n + 1) where n = p - 1 >= 0, one call
    for c, p, w, psi_n in zip(c.tolist(), p.astype(int).tolist(), omega.tolist(), psi):
        if w == 0.0:
            continue
        if p >= 1:
            n = p - 1
            f = _I_POW[n % 4] * w**n / math.factorial(n) * complex(
                psi_n - math.log(abs(w)), math.copysign(0.5 * math.pi, w))
        else:
            f = math.factorial(-p) * _I_POW[(1 - p) % 4] / w ** (1 - p)
        term = c * f
        re.append(term.real)
        im.append(term.imag)
        mag.append(abs(term))
    return complex(math.fsum(re), math.fsum(im)), math.fsum(mag), divergent


def _finite_part_applies(d: int, profiles) -> bool:
    return d == 3 and all(s.kind == HARD_SHELL for s in profiles)



# --------------------------------------------------------------------------
# hard shells: the integrand as terms c k^-p e^{i omega k}
# --------------------------------------------------------------------------

HANKEL_ORDERS = 8  # d=2 products keep Hankel orders below this; the next order is the bound
HANKEL_Z0 = 30.0  # a Bessel factor J(k a) takes its Hankel expansion where a k_split >= HANKEL_Z0
SMALL_RADIUS = 1e-3  # shell radii below SMALL_RADIUS x the largest leave k_split to the others
ANGULAR_NODES = 40  # nodes of an angular average, checked against twice as many
CENTRE_PANELS = 4096  # most body panels spent on expanding the kernel at HANKEL_Z0 / dx


def _times(terms, factor):
    """Product of two term sums (c, p, omega, order), orders above HANKEL_ORDERS dropped."""
    order = terms[3][:, None] + factor[3][None, :]
    keep = order <= HANKEL_ORDERS
    with np.errstate(invalid="ignore"):  # inf (a subnormal dx) x 0 is NaN, as in scalar arithmetic
        c = terms[0][:, None] * factor[0][None, :]
    return (c[keep], (terms[1][:, None] + factor[1][None, :])[keep],
            (terms[2][:, None] + factor[2][None, :])[keep], order[keep])


@functools.cache
def _hankel_coefficients(nu: float, orders: int):
    """e, m and a_m(nu) (i e)^m e^{-i e (2 nu + 1) pi / 4} of `_bessel`, m <= orders."""
    m = np.arange(orders + 1)
    a_m = np.cumprod([1.0] + [(4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j) for j in m[1:]])
    e, m = np.repeat([1.0, -1.0], len(m)), np.tile(m, 2)
    return e, m, np.tile(a_m, 2) * (1j * e) ** m * np.exp(-0.25j * math.pi * e * (2.0 * nu + 1.0))


def _bessel(nu: float, a: float, coef: complex, k_split: float, nodes: int):
    """coef J_nu(k a) for k >= k_split as terms (c, p, omega, order).

    For a k_split >= HANKEL_Z0 the Hankel expansion (Abramowitz & Stegun 9.2.5):
    per order m and e = +-1, coef sqrt(1/(2 pi a)) a_m(nu) (i e / a)^m
    e^{-i e (2 nu + 1) pi / 4} k^{-1/2-m} e^{i e a k}, a_m(nu) = prod_{j<=m}
    (4 nu^2 - (2j - 1)^2) / (8 j).  Otherwise the angular average J_nu(k a) =
    1/pi int_0^pi cos(nu th - k a sin th) dth on ``nodes`` Gauss-Legendre nodes
    th_j, weights w_j: coef w_j / 4 e^{i e nu th_j} e^{-i e a sin(th_j) k}.
    """
    if a * k_split >= HANKEL_Z0:
        e, m, c = _hankel_coefficients(nu, HANKEL_ORDERS)
        return coef * math.sqrt(0.5 / (math.pi * a)) * c / a**m, 0.5 + m, e * a, m
    x, w = _gauss_legendre(nodes)
    th, w = np.tile(0.5 * math.pi * (x + 1.0), 2), np.tile(w, 2)
    e = np.repeat([1.0, -1.0], nodes)
    return (0.25 * coef * w * np.exp(1j * e * nu * th), np.zeros(2 * nodes), -e * a * np.sin(th),
            np.zeros(2 * nodes, int))


def _disc(d: int, a: float, coef: float, k_split: float, nodes: int):
    """coef times the transform of the disc (d=2) or ball (d=3) of radius a
    for k >= k_split as terms (c, p, omega, order): 2 pi a J1(k a) / k by
    `_bessel`, or exactly 4 pi (sin ka - ka cos ka) / k^3 =
    sum_{e=+-1} e^{i e a k} (-2 pi i e k^-3 - 2 pi a k^-2)."""
    if d == 2:
        c, p, omega, order = _bessel(1.0, a, 2.0 * math.pi * a * coef, k_split, nodes)
        return c, p + 1.0, omega, order
    c = [x for e in (1.0, -1.0) for x in (-2j * math.pi * e * coef, -2.0 * math.pi * a * coef)]
    return np.array(c), np.array([3.0, 2.0, 3.0, 2.0]), np.array([a, a, -a, -a]), np.zeros(4, int)


def _expansion(d: int, dx: float, tau: float, profiles, derivative: bool, k_split: float,
               nodes: int):
    """The hard-shell integrand of `_radial_integrand` for k >= k_split as
    terms (c, p, omega, order), factor by factor: the measure, the phase and
    [i k], each profile's discs (`_disc`), and the kernel: J0(k dx) by
    `_bessel` (d=2), or sin(k dx)/(k dx) = sum_e e^{i e dx k} e / (2 i dx k)
    (d=3), averaged as 1/2 int_{-1}^1 e^{i k dx u} du on ``nodes``
    Gauss-Legendre nodes where dx k_split < HANKEL_Z0.  k_split = inf gives
    the exact d=3 terms of the finite-part sum."""
    terms = (np.array([(1j if derivative else 1.0) / (4.0 * math.pi ** (d - 1))]),
             np.array([2.0 - d - derivative]), np.array([tau]), np.zeros(1, int))
    for s in profiles:
        discs = [_disc(d, a, coef, k_split, nodes)
                 for a, coef in ((s.r_outer, s.amplitude), (s.r_inner, -s.amplitude)) if a > 0.0]
        terms = _times(terms, tuple(np.concatenate(x) for x in zip(*discs)))
    if dx == 0.0:
        return terms
    if d == 2:
        kernel = _bessel(0.0, dx, 1.0, k_split, nodes)
    elif dx * k_split >= HANKEL_Z0:
        kernel = (np.array([e / (2j * dx) for e in (1.0, -1.0)]), np.ones(2), np.array([dx, -dx]),
                  np.zeros(2, int))
    else:
        x, w = _gauss_legendre(nodes)
        kernel = 0.5 * w + 0j, np.zeros(nodes), dx * x, np.zeros(nodes, int)
    return _times(terms, kernel)


def _split(terms, k_split: float):
    """(c, p, omega) of the kept orders and the tail bound sum |c| K^{1-p} / (p - 1)
    of the first omitted one."""
    last = terms[3] == HANKEL_ORDERS
    c, p = terms[0][last], terms[1][last]
    bound = float(np.sum(np.abs(c) * k_split ** (1.0 - p) / (p - 1.0)))
    return tuple(x[~last] for x in terms[:3]), bound


def _tail_plan(d: int, dx: float, tau: float, profiles, derivative: bool = False):
    """The hard-shell integral of `_radial_integrand` beyond k_split, planned:
    the `power_tails` arguments of the `_expansion` terms (and of a coarser
    expansion where an angular average enters), the bound on what they leave
    out, k_split and the terms' fastest frequency.  `_tails` evaluates plans.

    k_split = HANKEL_Z0 / (smallest shell radius that is at least SMALL_RADIUS
    times the largest), so every other radius takes the Hankel expansion in
    `_expansion`, and so does the kernel where dx k_split >= HANKEL_Z0.  A
    smaller radius or dx enters as its angular average, which shifts each
    frequency by at most that radius; the difference between ANGULAR_NODES
    and twice as many adds to the estimate.  Where a frequency of the terms
    at dx = 0 lies within 2 dx of zero (a centre on or near a light-cone
    edge) the kernel's average would sweep it through zero, so the kernel is
    expanded at k_split = HANKEL_Z0 / dx instead; a radius that needs more
    than CENTRE_PANELS body panels for that raises `ConfigurationError`.
    """
    def split_at(a):  # rounded up, so that a k_split >= HANKEL_Z0
        return HANKEL_Z0 / a * (1.0 + 1e-15)

    radii = [a for s in profiles for a in (s.r_inner, s.r_outer) if a > 0.0]
    k_split = split_at(min(a for a in radii if a >= SMALL_RADIUS * max(radii)))
    if 0.0 < dx * k_split < HANKEL_Z0:
        centre = _expansion(d, 0.0, tau, profiles, derivative, k_split, ANGULAR_NODES)
        if np.abs(centre[2]).min() < 2.0 * dx:
            k_split = split_at(dx)
            if k_split * (np.abs(centre[2]).max() + dx) > math.pi * CENTRE_PANELS:
                raise ConfigurationError("too close to a centre on or near a light-cone edge")
    terms, omitted = _split(_expansion(d, dx, tau, profiles, derivative, k_split,
                                       2 * ANGULAR_NODES), k_split)
    plans = [(terms, k_split)]
    if 0.0 < dx * k_split < HANKEL_Z0 or (d == 2 and min(radii) * k_split < HANKEL_Z0):
        coarse, _ = _split(_expansion(d, dx, tau, profiles, derivative, k_split, ANGULAR_NODES),
                           k_split)
        plans.append((coarse, k_split))
    return plans, omitted, k_split, float(np.abs(terms[2]).max())


def _tails(plans):
    """The tail (value, estimate), k_split and frequency of each `_tail_plan`
    (None stays None), one `power_tails` call for all; the estimate adds the
    coarser expansion's distance and ROUNDING sum|tail terms| to the bound."""
    sums = iter(power_tails([t for plan in plans if plan for t in plan[0]]))
    for plan in plans:
        if plan is not None:
            terms, omitted, k_split, omega = plan
            tail, mag = next(sums)
            if len(terms) > 1:
                omitted += abs(next(sums)[0] - tail)
            plan = (tail, omitted + ROUNDING * mag), k_split, omega
        yield plan


def radial_integral(d: int, dx: float, tau: float, profiles, derivative: bool = False,
                    tol: float = 1e-10, scale: float | None = None, tail=None) -> tuple[complex, float]:
    """The radial integral of `_radial_integrand` with its error estimate.

    A Gaussian factor selects `_certified_nodes` and its 2n-node sum.  Given
    a ``scale`` and only d=3 hard shells, the exact finite-part sum of the
    `_expansion` terms serves wherever its rounding bound ROUNDING sum|terms|
    is within ``tol * scale``, and a sum that diverges (a light-cone edge)
    raises `ConfigurationError`.  Everything else goes through
    `oscillatory_integral`: the body by `certified_rule`, plus the exact tail
    (``tail``, or `_tails` of `_tail_plan`); its estimate, |n - 2n| +
    ROUNDING sum|w f| + the omitted Hankel order + ROUNDING sum|tail terms|,
    is returned.  There a surviving omega = 0 term with p <= 1 (a light-cone
    edge) raises `ConfigurationError`, and so does a radius too close to a
    centre on such an edge, where the d=3 terms cancel like 1/dx.
    """
    if not math.isfinite(tau):
        raise ConfigurationError("the time difference overflows")
    if any(s.kind == GAUSSIAN for s in profiles):
        _, sums, estimate = _certified_nodes(d, tau, profiles, np.array([dx]), tol, (derivative,))
        return complex(sums[0, 0]), float(estimate[0])
    if scale is not None and _finite_part_applies(d, profiles):
        val, mag, diverges = _finite_part(_expansion(3, dx, tau, profiles, derivative, math.inf, 0))
        if diverges:
            raise ConfigurationError("diverges on a light-cone edge")
        if ROUNDING * mag <= tol * scale:
            return val, ROUNDING * mag
    tail = tail or next(_tails([_tail_plan(d, dx, tau, profiles, derivative)]))
    return oscillatory_integral(_radial_integrand(d, dx, tau, profiles, derivative), *tail, tol)


def _pair_geometry(gen_i, gen_j):
    ci = np.asarray(gen_i.smearing.center)
    cj = np.asarray(gen_j.smearing.center)
    with np.errstate(over="ignore"):
        diff = ci - cj
        dx = float(np.linalg.norm(diff))
    if not math.isfinite(dx):  # the norm squares; hypot does not, but rounds differently
        dx = math.hypot(*diff)
    if not math.isfinite(dx):
        raise ConfigurationError(f"the distance between centres {gen_i.smearing.center} and "
                                 f"{gen_j.smearing.center} overflows")
    tau = gen_j.coupling_time - gen_i.coupling_time  # e^{-ik(t_i - t_j)}
    return dx, tau


@functools.cache
def _self_floor(s) -> float:
    """S_ii of a d=3 hard shell less its rounding bound, at least 0; once per profile."""
    val, mag, _ = _finite_part(_expansion(3, 0.0, 0.0, (s, s), False, math.inf, 0))
    return max(val.real - ROUNDING * mag, 0.0)


def _pair_setup(gen_i, gen_j, d: int):
    """The pair's profiles, checked against ``d``, and `_pair_geometry`."""
    profiles = (gen_i.smearing, gen_j.smearing)
    if {s.dimension for s in profiles} != {d}:
        raise ConfigurationError(f"smearing dimensions {[s.dimension for s in profiles]} != {d}")
    return profiles, *_pair_geometry(gen_i, gen_j)


def pairings(pairs, d: int, names, tol: float = 1e-10) -> list:
    """`pairing_detail`'s (value, estimate) of each pair of generators under its
    ``names``.  d=2 hard-shell pairs' tails are planned first and evaluated by
    one `_tails` call (pair by pair if that raises, so that the error names its
    pair); other pairs, and an overflowing time, take no tail."""
    plans = []
    for (gen_i, gen_j), name in zip(pairs, names):
        with naming(name):
            profiles, dx, tau = _pair_setup(gen_i, gen_j, d)
            plain = d == 2 and math.isfinite(tau) and all(s.kind == HARD_SHELL for s in profiles)
            plans.append(_tail_plan(d, dx, tau, profiles) if plain else None)
    try:
        tails = list(_tails(plans))
    except (ConfigurationError, QuadratureError):
        for plan, name in zip(plans, names):
            with naming(name):
                list(_tails([plan]))
        raise
    values = []
    for (gen_i, gen_j), name, tail in zip(pairs, names, tails):
        with naming(name):
            values.append(pairing_detail(gen_i, gen_j, d, tol, tail))
    return values


def pairing_detail(gen_i, gen_j, d: int, tol: float = 1e-10, tail=None) -> tuple[complex, float]:
    """Pairing S_ij with its error estimate (`radial_integral`, given the
    pair's ``tail`` from `pairings`, if any); for two d=3 hard shells
    the finite-part sum's scale is sqrt(S_ii S_jj), from the self-pairings'
    sums less their rounding bounds (`_self_floor`)."""
    profiles, dx, tau = _pair_setup(gen_i, gen_j, d)
    scale = None
    if _finite_part_applies(d, profiles):
        scale = math.sqrt(_self_floor(profiles[0]) * _self_floor(profiles[1]))
    return radial_integral(d, dx, tau, profiles, tol=tol, scale=scale, tail=tail)


def pairing(gen_i, gen_j, d: int, tol: float = 1e-10) -> complex:
    """Vacuum pairing <0| O_i O_j |0> as a complex number."""
    return pairing_detail(gen_i, gen_j, d, tol)[0]


# The m-th derivative of e^{-g k^2 / 2} is (-sqrt(g))^m He_m(sqrt(g) k) e^{-g k^2 / 2},
# and |He_m(x)| e^{-x^2 / 4} <= 1.0865 sqrt(m!) (Cramer, A&S 22.14.17), so the
# envelope's rate for the damped rule's 2n = 2 DAMPING_NODES derivatives is
# sqrt(g) (1.0865 sqrt((2n)!))^(1/2n); the root grows with m, so it bounds m < 2n too
ENVELOPE_RATE = (1.0865 * math.sqrt(math.factorial(2 * DAMPING_NODES))) ** (0.5 / DAMPING_NODES)


def pairing_damped(gen_i, gen_j, d: int) -> tuple[complex, float]:
    """Independent damped-tail evaluation of the pairing (cross-check path),
    one path for every profile kind.  Its rate omega adds the Gaussian
    envelope's rate ENVELOPE_RATE sqrt(g_i + g_j) (`ft_gauss_decay`, 0 for
    shells) to the phases' rates."""
    (si, sj), dx, tau = _pair_setup(gen_i, gen_j, d)
    integrand = _radial_integrand(d, dx, tau, (si, sj))
    omega = (abs(tau) + dx + sum(ft_frequencies(si)) + sum(ft_frequencies(sj))
             + ENVELOPE_RATE * math.sqrt(ft_gauss_decay(si) + ft_gauss_decay(sj)))
    return damped_tail_integral(integrand, omega)


def pairing_matrix(generators, d: int, tol: float = 1e-10) -> PairingMatrix:
    """Build the full pairing matrix; upper triangle computed (by one
    `pairings` call), mirrored by Hermitian symmetry (errors too)."""
    n = len(generators)
    entries = np.zeros((n, n), dtype=complex)
    errors = np.zeros((n, n), dtype=float)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    values = pairings([(generators[i], generators[j]) for i, j in upper], d,
                      [f"pairing ({i}, {j})" for i, j in upper], tol)
    for (i, j), (val, err) in zip(upper, values):
        entries[j, i], entries[i, j] = np.conjugate(val), val  # the diagonal keeps val
        errors[i, j] = errors[j, i] = err
    return PairingMatrix(entries=entries, errors=errors, dimension=d)


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


def _barycentric(points: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial through ``values`` (rows of complex columns) at the
    Chebyshev points of the second kind ``points``, at radii x: sum_i l_i f_i
    / (x - x_i) over sum_i l_i / (x - x_i), l_i = (-1)^i halved at both ends
    (Berrut & Trefethen, SIAM Review 46, 2004).  One `np.einsum` per block of
    at most 4e6 terms gives each row the same bits at any block height; a
    radius on a point takes its value."""
    lam = np.where(np.arange(len(points)) % 2, -1.0, 1.0)
    lam[[0, -1]] *= 0.5
    table = np.ones((2 * values.shape[1] + 1, len(points)))  # C order: one dot product per entry
    table[:-1] = values.view(float).T
    out = np.empty((len(x), values.shape[1]), dtype=complex)
    chunk = max(1, int(4e6 // len(points)))
    for i0 in range(0, len(x), chunk):
        r = x[i0 : i0 + chunk]
        col = np.searchsorted(points, r).clip(max=len(points) - 1)  # the point at or above
        row = np.flatnonzero(points[col] == r)
        col = col[row]
        diff = r[:, None] - points
        diff[row, col] = 1.0
        sums = np.einsum("ij,kj->ik", np.divide(lam, diff, out=diff), table)
        block = (sums[:, :-1] / sums[:, -1:]).view(complex)
        block[row] = values[col]
        out[i0 : i0 + chunk] = block
    return out


class ModeProfileEvaluator:
    """Evaluates I(t, .) and dI/dt(t, .) for one generator on many radii.

    This is the one mode-function path: Gaussian profiles use the closed
    form (d=3) or one node set (d=2), hard shells the exact finite-part
    sum (d=3) or the body-plus-exact-tail quadrature (d=2); a single radius r is
    ``evaluate([r])``.  ``radii`` holds every radius `evaluate` will get, in
    any shape.  The d=2 node set is the n-node set of the one node-doubling
    rule (`_certified_nodes`), certified at construction at r = 0 and the
    largest of the ``radii``.  `evaluate` sends its distinct radii through
    ``rows(fn, r)``, which also computes any table's rows (`qic.weighting_grid`
    splits both over its pool); each radius gets the same bits however they
    are split, so grid evaluations stay bit-identical under any threading.

    The node set's sum, of J0(k r) with k up to its largest node, is
    interpolated from a Chebyshev table on [0, dx_max] (`_chebyshev_table`)
    where that costs less: D K > (2n - 1)(K + D) for K nodes, D distinct
    ``radii`` up to dx_max and 2n - 1 points.  A radius outside [0, dx_max]
    then raises `ConfigurationError`.

    Hard shells go through `radial_integral` radius by radius, on the terms
    of `_expansion`.  In d=3 its scale is the sum of |terms| at r = 0 for
    the same generator, time and quantity (a scale that does not vanish
    where the value does), so the quadrature serves only where the terms
    cancel (r -> 0, like 1/r).  A radius on a light-cone edge where I or
    dI/dt diverges raises `ConfigurationError`, in either dimension, and so
    does a radius too close to a centre on such an edge (`_tail_plan`).
    """

    def __init__(self, gen, t: float, d: int, radii, tol: float = 1e-10,
                 rows=lambda fn, r: fn(r)):
        self.gen = gen
        self.t = float(t)
        self.d = int(d)
        self.tol = tol
        self._rows = rows
        self._tau = tau = self.t - gen.coupling_time  # e^{-ik(t0 - t)} = e^{ik tau}
        where = f"mode function at t={self.t}, coupling_time={gen.coupling_time}"
        if not math.isfinite(tau):
            raise ConfigurationError(f"{where}: the time difference overflows")
        s = gen.smearing
        self._gaussian_closed = s.kind == GAUSSIAN and d == 3
        self._shell_scale = (None, None)
        if _finite_part_applies(d, (s,)):
            self._shell_scale = tuple(_finite_part(_expansion(3, 0.0, tau, (s,), der, math.inf, 0))[1]
                                      for der in (False, True))
        self._nodes = self._table = None
        if s.kind == GAUSSIAN and d == 2:
            u = np.unique(radii)
            with naming(where):
                self._nodes, _, estimate = _certified_nodes(2, tau, (s,), np.array([0.0, u[-1]]),
                                                            tol, (False, True))
            self._table = self._chebyshev_table(float(u[-1]), len(u), estimate)

    def _chebyshev_table(self, dx_max: float, distinct: int, estimate):
        """(points, values) of I and dI/dt at 2n - 1 Chebyshev points of the
        second kind on [0, dx_max], or None where ``distinct`` direct sums cost less.
        n starts at the smallest 2^j + 1 >= k_K dx_max / 2 and doubles to
        2n - 1 until the n-point interpolant meets the other n - 1 values
        within tol sum|w f| less the node set's ``estimate``; the points are
        nested (bit for bit: n - 1 is a power of two), so every value is reused."""
        k, weights = self._nodes
        direct = functools.partial(_kernel_sums, 2, k=k, weights=weights)
        room = self.tol * np.abs(weights.view(complex)).sum(axis=0) - estimate
        n, values = 2, None
        while n < 0.5 * k[-1] * dx_max:
            n = 2 * n - 1
        while dx_max > 0.0 and distinct * len(k) > (2 * n - 1) * (len(k) + distinct):
            points = dx_max * np.sin(np.arange(2 * n - 1) * (0.25 * math.pi / (n - 1))) ** 2
            if values is None:
                values = self._rows(direct, points[::2])
            table = np.empty((2 * n - 1, 2), dtype=complex)
            table[::2], table[1::2] = values, self._rows(direct, points[1::2])
            miss = np.abs(_barycentric(points[::2], values, points[1::2]) - table[1::2])
            if np.all(miss.max(axis=0) <= room):
                return points, table
            n, values = 2 * n - 1, table
        return None

    def evaluate(self, dx) -> tuple[np.ndarray, np.ndarray]:
        """I and dI/dt at the radii ``dx`` (any shape): one `np.unique`, the
        distinct radii through ``rows`` and the values scattered back
        (lattice grids share radii)."""
        dx = np.asarray(dx, dtype=float)
        u, inv = np.unique(dx, return_inverse=True)
        I, dI = self._rows(self._evaluate_distinct, u).T[:, inv.ravel()]
        return I.reshape(dx.shape), dI.reshape(dx.shape)

    def _evaluate_distinct(self, u: np.ndarray) -> np.ndarray:
        """I and dI/dt at the sorted radii u, as the two columns of one array."""
        gen = self.gen
        if self._gaussian_closed:
            T = gen.coupling_time - self.t
            return np.stack(_gaussian_mode_closed(gen.smearing.sigma, T, u, gen.smearing.amplitude),
                            axis=1)
        if self._table is not None:
            points, values = self._table
            bad = u[~((u >= 0.0) & (u <= points[-1]))]
            if len(bad):
                raise ConfigurationError(f"I at r={bad[0]}, t={self.t}, coupling_time={gen.coupling_time}"
                                         f": outside [0, {points[-1]}], the interpolated range")
            return _barycentric(points, values, u)
        if self._nodes is not None:
            return _kernel_sums(2, u, *self._nodes)
        out = np.empty((len(u), 2), dtype=complex)
        # hard shells: per-radius finite-part sum (d=3) or quadrature
        for i, r in enumerate(u):
            for col, der in enumerate((False, True)):
                with naming(f"{'dI/dt' if der else 'I'} at r={float(r)}, t={self.t}, "
                            f"coupling_time={gen.coupling_time}"):
                    out[i, col] = radial_integral(self.d, float(r), self._tau, (gen.smearing,), der,
                                                  self.tol, self._shell_scale[der])[0]
        return out
