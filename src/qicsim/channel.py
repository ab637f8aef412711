"""One-bit encoding against multi-detector decoding: outcome statistics,
mutual information, and channel capacities.

The sender either does nothing (bit 0) or couples once to the field
(bit 1); each receiver detector couples once at a common later time and is
measured projectively.  Because all couplings are instantaneous, the joint
outcome distribution is an exact finite sum: for n receiver detectors it
runs over the sender's conjugation sign and two sign vectors per detector,
2 * 4^n terms that fall into 3^n classes of equal terms.  Only two
ingredients enter:

  * the real equal-time pairings among receiver operators (noise
    covariance), and
  * the imaginary part of each receiver-sender pairing across the time
    separation (signal).

Everything else - detector energy gaps in particular - cancels exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigurationError, NumericConsistencyError, naming
from .field_kernel import pairing_detail
from .qic import Generator
from .smearing import HARD_SHELL, support_radius

NEGATIVITY_FLOOR = -1e-12
NORMALIZATION_TOL = 1e-10

SUBSET_ORDER = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2))


def subset_label(subset) -> str:
    return "".join(f"B{i + 1}" for i in subset)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Joint distribution over detector outcomes; axis i indexes detector i
    with 0 = ground, 1 = excited."""

    probs: np.ndarray
    detectors: tuple[str, ...]

    @property
    def n_detectors(self) -> int:
        return len(self.detectors)


def _finalize_distribution(raw: np.ndarray, detectors) -> OutcomeDistribution:
    if raw.min() < NEGATIVITY_FLOOR:
        raise NumericConsistencyError(
            f"outcome probability {raw.min():.3e} below clamping floor; "
            "pairings are inaccurate"
        )
    clamped = np.where(raw < 0.0, 0.0, raw)
    total = clamped.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NumericConsistencyError(
            f"outcome probabilities sum to {total!r}, expected 1"
        )
    return OutcomeDistribution(probs=clamped / total, detectors=tuple(detectors))


@dataclass(frozen=True)
class ChannelMoments:
    """Pairings the outcome distribution depends on."""

    noise_cov: np.ndarray   # Re S among receiver operators (equal time)
    signal_im: np.ndarray   # Im S between each receiver and the sender
    error_bound: float      # max quadrature error estimate among entries


@dataclass(frozen=True)
class ChannelScenario:
    """Sender plus exactly three receiver detectors at a common later time.

    ``geometry`` records, per receiver, where its shell sits relative to the
    smeared light cone of the sender's coupling region (inside / straddling
    / outside); a mismatch with that expected ordering only warns, since it
    is a property of the scenario rather than a precondition.
    """

    alice: Generator
    bobs: tuple[Generator, Generator, Generator]
    dimension: int
    geometry: tuple[str, str, str]

    @property
    def delta_t(self) -> float:
        return self.bobs[0].coupling_time - self.alice.coupling_time


def classify_receiver(bob: Generator, alice: Generator, delta_t: float) -> str:
    """Position of a concentric shell relative to the smeared light cone."""
    sa, sb = alice.smearing, bob.smearing
    if sb.kind != HARD_SHELL or not math.isfinite(support_radius(sa)):
        return "unclassified"
    if np.linalg.norm(np.asarray(sa.center) - np.asarray(sb.center)) > 0.0:
        return "unclassified"
    r_a = support_radius(sa)
    r, rr = sb.r_inner, sb.r_outer
    if rr < delta_t - r_a:
        return "inside"
    if delta_t - r_a < r and rr < r_a + delta_t:
        return "straddling"
    if r > r_a + delta_t:
        return "outside"
    return "overlapping"


def make_channel_scenario(alice: Generator, bobs, dimension: int) -> ChannelScenario:
    bobs = tuple(bobs)
    if len(bobs) != 3:
        raise ConfigurationError("scenario takes exactly three receiver detectors")
    t_dec = bobs[0].coupling_time
    for b in bobs:
        if b.coupling_time != t_dec:
            raise ConfigurationError("receiver detectors must share one coupling time")
        if b.smearing.dimension != dimension:
            raise ConfigurationError("receiver smearing dimension mismatch")
    if alice.smearing.dimension != dimension:
        raise ConfigurationError("sender smearing dimension mismatch")
    delta_t = t_dec - alice.coupling_time
    if delta_t <= 0.0:
        raise ConfigurationError("decoding must happen after encoding")
    geometry = tuple(classify_receiver(b, alice, delta_t) for b in bobs)
    expected = ("inside", "straddling", "outside")
    if geometry != expected:
        warnings.warn(
            f"receiver geometry {geometry} differs from expected {expected}",
            stacklevel=2,
        )
    return ChannelScenario(alice=alice, bobs=bobs, dimension=dimension, geometry=geometry)


def scenario_moments(sc: ChannelScenario, tol: float = 1e-10) -> ChannelMoments:
    n = len(sc.bobs)
    cov = np.zeros((n, n))
    sig = np.zeros(n)
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            with naming(f"pairing (bob {i}, bob {j})"):
                val, err = pairing_detail(sc.bobs[i], sc.bobs[j], sc.dimension, tol)
            cov[i, j] = cov[j, i] = val.real
            worst = max(worst, err)
    for i in range(n):
        with naming(f"pairing (bob {i}, alice)"):
            val, err = pairing_detail(sc.bobs[i], sc.alice, sc.dimension, tol)
        sig[i] = val.imag
        worst = max(worst, err)
    return ChannelMoments(noise_cov=cov, signal_im=sig, error_bound=worst)


def distribution_from_moments(
    moments: ChannelMoments, couplings, lam_alice: float, detectors=None
) -> OutcomeDistribution:
    """Exact outcome distribution for arbitrary receiver count.

    Detector i's sign pair (s_i, s'_i) enters only through
    c_i = lam_i (s_i - s'_i), and its outcome factor s_i s'_i is -1 exactly
    where c_i != 0; the sender's sign enters only through an even cosine.
    So the 2 * 4^n terms fall into 3^n classes s - s' in {0, +-2}^n of
    2^(1 + #zeros) equal terms each.  The multiplicities are powers of two
    and `math.fsum` rounds each outcome's sum once, so the result is
    bit-identical to summing every term, and the same run to run.
    """
    lam = np.asarray(couplings, dtype=float)
    n = len(lam)
    V = np.asarray(moments.noise_cov, dtype=float)
    m = np.asarray(moments.signal_im, dtype=float)
    if V.shape != (n, n) or m.shape != (n,):
        raise ConfigurationError("moment shapes do not match coupling count")
    if detectors is None:
        detectors = tuple(f"B{i + 1}" for i in range(n))

    classes = np.array(list(product((0.0, 2.0, -2.0), repeat=n)))
    moved = classes != 0.0
    weights = np.empty(len(classes))
    for row, e in enumerate(classes):
        c = lam * e
        decoh = math.exp(-0.5 * float(c @ V @ c))
        # the sender commutators are imaginary c-numbers: the signal is the
        # phase e^{+-2i lam_alice c.m}, and its sign pair keeps the cosine
        term = 0.5 * decoh * math.cos(2.0 * lam_alice * float(c @ m)) / 4.0**n
        weights[row] = term * 2.0 ** (1 + n - int(moved[row].sum()))
    outcomes = np.array(list(product((0, 1), repeat=n)))
    flipped = (outcomes @ moved.T) % 2 == 1
    signed = np.where(flipped, -weights, weights)
    raw = np.array([math.fsum(terms) for terms in signed]).reshape((2,) * n)
    return _finalize_distribution(raw, detectors)


def joint_distribution(
    sc: ChannelScenario,
    bit: int,
    moments: ChannelMoments | None = None,
    tol: float = 1e-10,
) -> OutcomeDistribution:
    """Outcome distribution of the three receivers given the sent bit."""
    if bit not in (0, 1):
        raise ConfigurationError("bit must be 0 or 1")
    if moments is None:
        moments = scenario_moments(sc, tol)
    lam_alice = sc.alice.coupling * float(bit)
    couplings = [b.coupling for b in sc.bobs]
    return distribution_from_moments(moments, couplings, lam_alice)


def marginalize(dist: OutcomeDistribution, subset) -> OutcomeDistribution:
    """Distribution of a nonempty subset of detectors (others summed out)."""
    subset = tuple(subset)
    if not subset:
        raise ConfigurationError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ConfigurationError("subset has repeated detectors")
    if any(i < 0 or i >= dist.n_detectors for i in subset):
        raise ConfigurationError("subset index out of range")
    keep = sorted(subset)
    drop = tuple(i for i in range(dist.n_detectors) if i not in keep)
    probs = dist.probs.sum(axis=drop) if drop else dist.probs
    return OutcomeDistribution(
        probs=probs, detectors=tuple(dist.detectors[i] for i in keep)
    )


def _log_base_value(base) -> float:
    if base in (2, 2.0, "2"):
        return math.log(2.0)
    if base in ("e", math.e):
        return 1.0
    raise ConfigurationError("log base must be 2 or 'e'")


def mutual_information(q: float, p0, p1, base=2) -> float:
    """I(A;B) for prior (q, 1-q) over the two conditionals p0, p1.

    Zero-probability cells contribute zero.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError("prior must lie in [0, 1]")
    ln_base = _log_base_value(base)
    a0 = np.asarray(p0.probs if isinstance(p0, OutcomeDistribution) else p0).ravel()
    a1 = np.asarray(p1.probs if isinstance(p1, OutcomeDistribution) else p1).ravel()
    if a0.shape != a1.shape:
        raise ConfigurationError("conditionals live on different outcome spaces")
    if q == 0.0 or q == 1.0:
        return 0.0
    pb = q * a0 + (1.0 - q) * a1
    total = 0.0
    for weight, cond in ((q, a0), (1.0 - q, a1)):
        mask = cond > 0.0
        total += weight * float(
            np.sum(cond[mask] * np.log(cond[mask] / pb[mask]))
        )
    return total / ln_base


def capacity(p0, p1, base=2, tol: float = 1e-10) -> tuple[float, float]:
    """Maximise I(A;B) over the prior; I is concave in q, so golden-section
    search converges.  Returns (capacity, maximising prior)."""
    a0 = np.asarray(p0.probs if isinstance(p0, OutcomeDistribution) else p0).ravel()
    a1 = np.asarray(p1.probs if isinstance(p1, OutcomeDistribution) else p1).ravel()
    if np.array_equal(a0, a1):
        return 0.0, 0.5
    f = lambda q: mutual_information(q, a0, a1, base)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    q_star = 0.5 * (a + b)
    return max(f(q_star), 0.0), q_star


@dataclass(frozen=True)
class CapacityResult:
    """Capacities for every nonempty receiver subset of one scenario."""

    capacities: dict[str, float]
    priors: dict[str, float]
    log_base: str
    search_tol: float
    moment_error_bound: float

    def as_row(self) -> tuple[float, ...]:
        return tuple(self.capacities[subset_label(s)] for s in SUBSET_ORDER)


def capacity_table(
    sc: ChannelScenario,
    base=2,
    tol: float = 1e-10,
    search_tol: float = 1e-10,
) -> CapacityResult:
    """Joint distributions for both bits, then capacity per subset."""
    moments = scenario_moments(sc, tol)
    p0 = joint_distribution(sc, 0, moments)
    p1 = joint_distribution(sc, 1, moments)
    caps: dict[str, float] = {}
    priors: dict[str, float] = {}
    for subset in SUBSET_ORDER:
        m0 = marginalize(p0, subset)
        m1 = marginalize(p1, subset)
        c, q = capacity(m0, m1, base, search_tol)
        label = subset_label(subset)
        caps[label] = c
        priors[label] = q
    return CapacityResult(
        capacities=caps,
        priors=priors,
        log_base="2" if _log_base_value(base) != 1.0 else "e",
        search_tol=search_tol,
        moment_error_bound=moments.error_bound,
    )
