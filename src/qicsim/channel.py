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
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import ConfigurationError, NumericConsistencyError
from .field_kernel import pairings
from .qic import MAX_GRID_VALUES, Generator
from .smearing import HARD_SHELL, support_radius

NEGATIVITY_FLOOR = -1e-12
NORMALIZATION_TOL = 1e-10


def receiver_subsets(n: int) -> list[tuple[int, ...]]:
    """Every nonempty subset of n receivers, ordered by size, then span
    (last index - first), then lexicographically.  For n = 3: B1, B2, B3,
    B1B2, B2B3, B1B3, B1B2B3."""
    subsets = [s for k in range(1, n + 1) for s in combinations(range(n), k)]
    return sorted(subsets, key=lambda s: (len(s), s[-1] - s[0], s))


def subset_label(subset) -> str:
    return "".join(f"B{i + 1}" for i in subset)


def _check_receiver_count(n: int) -> None:
    """The outcome sum's 2^n x 3^n sign table shares the grid's value budget
    (n <= 8); a larger n is refused before anything is computed."""
    if 6**n > MAX_GRID_VALUES:
        raise ConfigurationError(f"{n} receivers: the 2^{n} x 3^{n} sign table exceeds "
                                 f"the budget of {MAX_GRID_VALUES} values")


def _finalize_distribution(raw: np.ndarray) -> np.ndarray:
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
    return clamped / total


@dataclass(frozen=True)
class ChannelMoments:
    """Pairings the outcome distribution depends on."""

    noise_cov: np.ndarray   # Re S among receiver operators (equal time)
    signal_im: np.ndarray   # Im S between each receiver and the sender
    error_bound: float      # max quadrature error estimate among entries


@dataclass(frozen=True)
class ChannelScenario:
    """Sender plus one or more receiver detectors at a common later time.

    ``geometry`` records, per receiver, where its shell sits relative to the
    smeared light cone of the sender's coupling region (`classify_receiver`).
    """

    alice: Generator
    bobs: tuple[Generator, ...]
    dimension: int
    geometry: tuple[str, ...]


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
    if not bobs:
        raise ConfigurationError("scenario has no receiver detectors")
    _check_receiver_count(len(bobs))
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
    return ChannelScenario(alice=alice, bobs=bobs, dimension=dimension, geometry=geometry)


def scenario_moments(sc: ChannelScenario, tol: float = 1e-10) -> ChannelMoments:
    n = len(sc.bobs)
    cov = np.zeros((n, n))
    sig = np.zeros(n)
    worst = 0.0
    gens = (*sc.bobs, sc.alice)  # the sender is index n
    pairs = [(i, j) for i in range(n) for j in range(i, n)] + [(i, n) for i in range(n)]
    names = [f"pairing (bob {i}, {'alice' if j == n else f'bob {j}'})" for i, j in pairs]
    values = pairings([(gens[i], gens[j]) for i, j in pairs], sc.dimension, names, tol)
    for (i, j), (val, err) in zip(pairs, values):
        if j == n:
            sig[i] = val.imag
        else:
            cov[i, j] = cov[j, i] = val.real
        worst = max(worst, err)
    return ChannelMoments(noise_cov=cov, signal_im=sig, error_bound=worst)


def distribution_from_moments(moments: ChannelMoments, couplings, lam_alice: float) -> np.ndarray:
    """Exact outcome distribution for any receiver count within the budget,
    as a (2,) * n array: axis i is detector i, 0 = ground and 1 = excited.

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
    _check_receiver_count(n)
    V = np.asarray(moments.noise_cov, dtype=float)
    m = np.asarray(moments.signal_im, dtype=float)
    if V.shape != (n, n) or m.shape != (n,):
        raise ConfigurationError("moment shapes do not match coupling count")

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
    return _finalize_distribution(raw)


def marginalize(probs, subset) -> np.ndarray:
    """Distribution of a nonempty subset of detectors (other axes summed out)."""
    probs = np.asarray(probs)
    subset = tuple(subset)
    if not subset:
        raise ConfigurationError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ConfigurationError("subset has repeated detectors")
    if any(i < 0 or i >= probs.ndim for i in subset):
        raise ConfigurationError("subset index out of range")
    drop = tuple(i for i in range(probs.ndim) if i not in subset)
    return probs.sum(axis=drop) if drop else probs


def _log_base_value(base) -> float:
    if base in (2, 2.0, "2"):
        return math.log(2.0)
    if base in ("e", math.e):
        return 1.0
    raise ConfigurationError("log base must be 2 or 'e'")


def _information(a0: np.ndarray, a1: np.ndarray, base):
    """q -> `mutual_information` of the flat conditionals a0, a1, with the
    base, the shapes and the nonzero cells settled once."""
    ln_base = _log_base_value(base)
    if a0.shape != a1.shape:
        raise ConfigurationError("conditionals live on different outcome spaces")
    cells = [(idx, a[idx]) for a in (a0, a1) for idx in [np.flatnonzero(a > 0.0)]]

    def info(q: float) -> float:
        if q == 0.0 or q == 1.0:
            return 0.0
        pb = q * a0 + (1.0 - q) * a1
        total = 0.0
        for weight, (idx, cond) in zip((q, 1.0 - q), cells):
            total += weight * float(np.add.reduce(cond * np.log(cond / pb[idx])))
        return total / ln_base

    return info


def mutual_information(q: float, p0, p1, base=2) -> float:
    """I(A;B) for prior (q, 1-q) over the two conditionals p0, p1.

    Zero-probability cells contribute zero.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError("prior must lie in [0, 1]")
    return _information(np.ravel(p0), np.ravel(p1), base)(q)


def capacity(p0, p1, base=2, tol: float = 1e-10) -> tuple[float, float]:
    """Maximise I(A;B) over the prior; I is concave in q, so golden-section
    search converges.  The search ends when the bracket is within ``tol`` or
    stops shrinking (at rounding level).  Returns (capacity, maximising prior),
    the prior 0.5 where the capacity is 0."""
    a0, a1 = np.ravel(p0), np.ravel(p1)
    if np.array_equal(a0, a1):
        return 0.0, 0.5
    f = _information(a0, a1, base)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    while b - a < width and not b - a <= tol:  # a NaN tol searches to rounding level
        width = b - a
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    q_star = 0.5 * (a + b)
    c = f(q_star)
    if c <= 0.0:  # the search followed rounding noise
        return 0.0, 0.5
    return c, q_star


@dataclass(frozen=True)
class CapacityResult:
    """Capacities for every nonempty receiver subset of one scenario, with
    the moments and the joint distributions (bits 0 and 1) they came from."""

    capacities: dict[str, float]
    priors: dict[str, float]
    log_base: str
    search_tol: float
    moments: ChannelMoments
    distributions: tuple[np.ndarray, np.ndarray]


def capacity_table(
    sc: ChannelScenario,
    base=2,
    tol: float = 1e-10,
    search_tol: float = 1e-10,
) -> CapacityResult:
    """Joint distributions for both bits, then capacity per subset, in
    `receiver_subsets` order."""
    moments = scenario_moments(sc, tol)
    couplings = [b.coupling for b in sc.bobs]
    p0, p1 = (distribution_from_moments(moments, couplings, sc.alice.coupling * float(bit))
              for bit in (0, 1))
    caps: dict[str, float] = {}
    priors: dict[str, float] = {}
    for subset in receiver_subsets(len(sc.bobs)):
        c, q = capacity(marginalize(p0, subset), marginalize(p1, subset), base, search_tol)
        label = subset_label(subset)
        caps[label] = c
        priors[label] = q
    return CapacityResult(
        capacities=caps,
        priors=priors,
        log_base="2" if _log_base_value(base) != 1.0 else "e",
        search_tol=search_tol,
        moments=moments,
        distributions=(p0, p1),
    )
