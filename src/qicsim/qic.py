"""Construction of orthonormal information-carrying mode sets.

Operators live as real coefficient vectors over the 2k-dimensional basis
{O_1..O_k, f(O_1)..f(O_k)}: index a < k is O_a, index k + a is f(O_a).
The vacuum closes this space under the conjugation map f (f o f = -id), so
the whole mode recursion is exact linear algebra over the pairing matrix:

    <e_a e_b>   ->  G = [[S, iS], [-iS, S]]
    metric      M = Re G   (second moments)
    symplectic  W = 2 Im G (commutators over i)

Both forms follow from S alone because the vacuum is pure; in particular
M = (1/2) F W with F the matrix of f, which makes the covariance conditions
equivalent to the symplectic ones.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericConsistencyError
from .field_kernel import ModeProfileEvaluator, PairingMatrix, pairing_matrix
from .smearing import RadialSmearing

# a generator whose remainder norm alpha^2 falls below this fraction of 2<O^2>
# is linearly dependent on the modes before it and is skipped
DEGENERACY_EPS = 1e-10

# grid points x generators that `weighting_grid` accepts; each costs <= 0.25 kB at
# peak (measured at 0.5 M points), so ~1 GB at the budget
MAX_GRID_VALUES = 1 << 22


@dataclass(frozen=True)
class Generator:
    """One instantaneous coupling event: profile, time, strength.

    No detector gap appears: the detectors sit in their ground states until
    the delta coupling fires, so every result is independent of it.
    """

    smearing: RadialSmearing
    coupling_time: float
    coupling: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.coupling) and math.isfinite(self.coupling_time)):
            raise ConfigurationError("coupling and coupling_time must be finite")


@dataclass(frozen=True)
class ExtendedGram:
    """Bilinear forms on the span of {O_a, f(O_a)} derived from pairings."""

    metric: np.ndarray
    symplectic: np.ndarray

    @property
    def size(self) -> int:
        return self.metric.shape[0]

    def apply_f(self, u: np.ndarray) -> np.ndarray:
        """Coefficient vector of f(A): (q, p) -> (-p, q)."""
        k = self.size // 2
        out = np.empty_like(u)
        out[:k] = -u[k:]
        out[k:] = u[:k]
        return out


def extended_gram(pairing: PairingMatrix) -> ExtendedGram:
    S = pairing.entries
    re, im = S.real, S.imag
    metric = np.block([[re, -im], [im, re]])
    symplectic = 2.0 * np.block([[im, re], [-re, im]])
    return ExtendedGram(metric=metric, symplectic=symplectic)


@dataclass(frozen=True)
class QicModeSet:
    """Orthonormal mode pairs built from an ordered generator list.

    ``q_coeffs[m]`` / ``p_coeffs[m]`` are the coefficient vectors of the
    m-th mode's two quadratures over {O_a, f(O_a)}.  ``mode_generators``
    maps mode slot -> generator index; generators found linearly dependent
    on earlier modes are listed in ``skipped`` and produce no mode.
    ``betas``/``gammas`` are indexed [generator, mode slot].
    """

    generators: tuple[Generator, ...]
    pairing: PairingMatrix
    gram: ExtendedGram
    alphas: np.ndarray
    betas: np.ndarray
    gammas: np.ndarray
    q_coeffs: np.ndarray
    p_coeffs: np.ndarray
    mode_generators: tuple[int, ...]
    skipped: tuple[int, ...]

    @property
    def n_modes(self) -> int:
        return len(self.mode_generators)

    @property
    def dimension(self) -> int:
        return self.pairing.dimension


def build_qic(
    generators,
    d: int,
    *,
    pairing: PairingMatrix | None = None,
    tol: float = 1e-10,
) -> QicModeSet:
    """Run the ordered mode recursion over the given generators.

    Each step removes from O_i its overlap with the modes already built
    (coefficients beta, gamma read off the symplectic form) and normalises
    the remainder; generators whose remainder norm alpha_i^2 falls below
    `DEGENERACY_EPS` relative to 2<O_i^2> are recorded as skipped.  A
    remainder norm significantly below zero signals inaccurate pairings and
    raises `NumericConsistencyError`.
    """
    generators = tuple(generators)
    if not generators:
        raise ConfigurationError("need at least one generator")
    if pairing is None:
        pairing = pairing_matrix(generators, d, tol)
    elif pairing.size != len(generators):
        raise ConfigurationError("pairing matrix size does not match generator count")

    gram = extended_gram(pairing)
    k = len(generators)
    W = gram.symplectic
    M = gram.metric

    q_list: list[np.ndarray] = []
    p_list: list[np.ndarray] = []
    alphas: list[float] = []
    betas = np.zeros((k, k))
    gammas = np.zeros((k, k))
    mode_generators: list[int] = []
    skipped: list[int] = []

    for i in range(k):
        e_i = np.zeros(2 * k)
        e_i[i] = 1.0
        norm2 = 2.0 * M[i, i]  # 2 <O_i^2>
        resid = e_i.copy()
        alpha2 = norm2
        for m, (qm, pm) in enumerate(zip(q_list, p_list)):
            b = W[i] @ pm   # (1/i)<[O_i, P_m]>
            g = -(W[i] @ qm)  # -(1/i)<[O_i, Q_m]>
            betas[i, m] = b
            gammas[i, m] = g
            resid -= b * qm + g * pm
            alpha2 -= b * b + g * g
        if alpha2 <= DEGENERACY_EPS * norm2:
            if alpha2 < -1e-8 * norm2:
                raise NumericConsistencyError(
                    f"generator {i}: mode norm {alpha2:.3e} is negative beyond "
                    "tolerance; pairing matrix is inconsistent"
                )
            skipped.append(i)
            continue
        alpha = math.sqrt(alpha2)
        q_i = resid / alpha
        p_i = gram.apply_f(q_i)
        q_list.append(q_i)
        p_list.append(p_i)
        alphas.append(alpha)
        mode_generators.append(i)

    n = len(mode_generators)
    return QicModeSet(
        generators=generators,
        pairing=pairing,
        gram=gram,
        alphas=np.array(alphas),
        betas=betas[:, :n].copy(),
        gammas=gammas[:, :n].copy(),
        q_coeffs=np.array(q_list) if q_list else np.zeros((0, 2 * k)),
        p_coeffs=np.array(p_list) if p_list else np.zeros((0, 2 * k)),
        mode_generators=tuple(mode_generators),
        skipped=tuple(skipped),
    )


def _interleaved_coeffs(modes: QicModeSet) -> np.ndarray:
    """Coefficient rows of the mode basis (Q_1, P_1, Q_2, ...), shape (2n, 2k)."""
    B = np.empty((2 * modes.n_modes, modes.q_coeffs.shape[1]))
    B[0::2] = modes.q_coeffs
    B[1::2] = modes.p_coeffs
    return B


def symplectic_gram(modes: QicModeSet) -> np.ndarray:
    """(1/i)<[., .]> over the interleaved mode basis (Q_1, P_1, Q_2, ...).

    Equals the standard symplectic form for an exactly orthonormal set.
    """
    B = _interleaved_coeffs(modes)
    return B @ modes.gram.symplectic @ B.T


def covariance_matrix(modes: QicModeSet) -> np.ndarray:
    """Re second moments over the interleaved mode basis; purity in the
    standard form means this equals identity / 2."""
    B = _interleaved_coeffs(modes)
    return B @ modes.gram.metric @ B.T


# --------------------------------------------------------------------------
# spacetime grids of weighting functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GridAxis:
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise ConfigurationError(
                f"grid axis needs finite start, stop and step, got "
                f"{self.start}:{self.stop}:{self.step}")
        if not (self.step > 0.0 and self.stop >= self.start):
            raise ConfigurationError("grid axis needs stop >= start and step > 0")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ConfigurationError(f"grid axis {self.start}:{self.stop}:{self.step} "
                                     f"has too many points to count")

    def __len__(self) -> int:
        """Number of points, counted without allocating them."""
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(len(self))


@dataclass(frozen=True)
class GridSpec:
    """One entry per spatial axis: a `GridAxis` (varying) or a fixed value."""

    axes: tuple

    def __post_init__(self):
        if not any(isinstance(a, GridAxis) for a in self.axes):
            raise ConfigurationError("grid needs at least one varying axis")
        for a in self.axes:
            if not isinstance(a, GridAxis) and not math.isfinite(a):
                raise ConfigurationError(f"grid fixed axis value {a} is not finite")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes if isinstance(a, GridAxis))

    def points(self) -> np.ndarray:
        """All grid points, shape (N, d), varying axes in row-major order."""
        columns = [
            a.values() if isinstance(a, GridAxis) else np.array([float(a)])
            for a in self.axes
        ]
        mesh = np.meshgrid(*columns, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return pts.reshape(-1, len(self.axes))


@dataclass(frozen=True)
class FieldGrid:
    """Sampled weighting functions of the selected modes at one time.

    ``q_field``/``q_momentum`` weight the field operator and its conjugate
    momentum in the first quadrature of each mode; ``p_field``/``p_momentum``
    do the same for the second quadrature.  Shapes: (n_modes, *grid shape).
    """

    dimension: int
    t: float
    spec: GridSpec
    mode_indices: tuple[int, ...]
    q_field: np.ndarray
    q_momentum: np.ndarray
    p_field: np.ndarray
    p_momentum: np.ndarray


def weighting_grid(
    modes: QicModeSet,
    mode_index: int | None,
    t: float,
    spec: GridSpec,
    *,
    tol: float = 1e-10,
    threads: int = 1,
) -> FieldGrid:
    """Sample the four weighting functions of one mode (or all modes).

    One `ModeProfileEvaluator` per generator is given every grid radius and
    evaluates them in one call, so each distinct radius is evaluated once and
    shared across modes.  The evaluator splits its distinct radii, and any
    table's rows, into 4 * ``threads`` parts that `Executor.map` hands to
    ``threads`` workers (capped at this process's CPUs), the same way at
    every thread count.  The field components come from the exact
    time-derivative integral.
    """
    from concurrent.futures import ThreadPoolExecutor  # looked up per call, so it can be patched

    d = modes.dimension
    if spec.dimension != d:
        raise ConfigurationError(f"grid has {spec.dimension} axes, expected {d}")
    if not math.isfinite(t):
        raise ConfigurationError("snapshot time must be finite")
    if threads < 1:
        raise ConfigurationError(f"threads must be at least 1, got {threads}")
    threads = min(threads, len(os.sched_getaffinity(0)))
    if mode_index is None:
        if modes.n_modes == 0:
            raise ConfigurationError("no mode to sample: every generator was skipped")
        selected = list(range(modes.n_modes))
    else:
        if not 0 <= mode_index < modes.n_modes:
            raise ConfigurationError(f"mode index {mode_index} out of range")
        selected = [mode_index]

    n_points = math.prod(spec.shape)
    if n_points * len(modes.generators) > MAX_GRID_VALUES:
        raise ConfigurationError(f"grid of {n_points} points x {len(modes.generators)} generators "
                                 f"exceeds the budget of {MAX_GRID_VALUES} values")
    pts = spec.points()
    if len(pts) == 0:
        raise ConfigurationError("grid is empty")

    # per-generator weighting components at time t
    k = len(modes.generators)
    v1, v2, u1, u2 = np.empty((4, k, len(pts)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        def rows(fn, r):  # an evaluator's distinct radii and table rows, split over the pool
            return np.concatenate(list(pool.map(fn, np.array_split(r, 4 * threads))))

        for j, gen in enumerate(modes.generators):
            dx = np.linalg.norm(pts - np.asarray(gen.smearing.center), axis=1)
            I, dI = ModeProfileEvaluator(gen, t, d, dx, tol=tol, rows=rows).evaluate(dx)
            v1[j], v2[j] = 2.0 * dI.imag, -2.0 * I.imag
            u1[j], u2[j] = -2.0 * dI.real, 2.0 * I.real

    shape = spec.shape

    def weights(coeffs, v, u):
        """coeffs[m, :k] @ v + coeffs[m, k:] @ u per selected mode m, on the grid."""
        out = np.empty((len(selected),) + shape)
        for row, m in enumerate(selected):
            out[row] = (coeffs[m, :k] @ v + coeffs[m, k:] @ u).reshape(shape)
        return out

    return FieldGrid(
        dimension=d,
        t=float(t),
        spec=spec,
        mode_indices=tuple(selected),
        q_field=weights(modes.q_coeffs, v1, u1),
        q_momentum=weights(modes.q_coeffs, v2, u2),
        p_field=weights(modes.p_coeffs, v1, u1),
        p_momentum=weights(modes.p_coeffs, v2, u2),
    )
