"""Construction of orthonormal information-carrying mode sets.

An operator in the span of {O_1..O_k, f(O_1)..f(O_k)},
sum_a x_a O_a + y_a f(O_a), is the complex coefficient vector z = x - i y in
C^k.  The vacuum closes this span under the conjugation map f (f o f = -id),
which acts on z as multiplication by -i.  Because the vacuum is pure, its
second moments and commutators on the span are the real and imaginary parts
of one Hermitian form built from the pairing matrix S alone:

    <z, w> = 2 z^H conj(S) w = 2 <B A>    (A <-> z, B <-> w)
    Re <z, w> = <{A, B}>,   Im <z, w> = -(1/i) <[A, B]>

so the mode recursion is Gram-Schmidt in k complex dimensions, and a mode
c with <c, c> = 1 is a quadrature pair Q <-> c, P = f(Q) <-> -i c in the
standard form: <Q^2> = <P^2> = 1/2, [Q, P] = i.
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
class QicModeSet:
    """Orthonormal mode pairs built from an ordered generator list.

    ``coeffs[m]`` is the complex coefficient vector c_m of the m-th mode's
    first quadrature Q_m over {O_a} (its second is P_m = f(Q_m) <-> -i c_m).
    ``mode_generators`` maps mode slot -> generator index; generators found
    linearly dependent on earlier modes are listed in ``skipped`` and produce
    no mode.  ``overlaps[i, m]`` = <c_m, O_i> = beta - i gamma, with beta and
    gamma O_i's components along Q_m and P_m.
    """

    generators: tuple[Generator, ...]
    pairing: PairingMatrix
    alphas: np.ndarray
    overlaps: np.ndarray
    coeffs: np.ndarray
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

    Each step removes from O_i its overlaps <c_m, O_i> with the modes already
    built and normalises the remainder; generators whose remainder norm
    alpha_i^2 falls below `DEGENERACY_EPS` relative to 2<O_i^2> are recorded
    as skipped.  A remainder norm significantly below zero signals inaccurate
    pairings and raises `NumericConsistencyError`.
    """
    generators = tuple(generators)
    if not generators:
        raise ConfigurationError("need at least one generator")
    if pairing is None:
        pairing = pairing_matrix(generators, d, tol)
    elif pairing.size != len(generators):
        raise ConfigurationError("pairing matrix size does not match generator count")

    k = len(generators)
    H = 2.0 * pairing.entries.conj()  # H[a, b] = <O_a, O_b>
    coeffs: list[np.ndarray] = []
    alphas: list[float] = []
    overlaps = np.zeros((k, k), dtype=complex)
    mode_generators: list[int] = []
    skipped: list[int] = []

    for i in range(k):
        norm2 = H[i, i].real  # 2 <O_i^2>
        resid = np.zeros(k, dtype=complex)
        resid[i] = 1.0
        alpha2 = norm2
        for m, c in enumerate(coeffs):
            o = np.vdot(c, H[:, i])
            overlaps[i, m] = o
            resid -= o * c
            alpha2 -= o.real * o.real + o.imag * o.imag
        if alpha2 <= DEGENERACY_EPS * norm2:
            if alpha2 < -1e-8 * norm2:
                raise NumericConsistencyError(
                    f"generator {i}: mode norm {alpha2:.3e} is negative beyond "
                    "tolerance; pairing matrix is inconsistent"
                )
            skipped.append(i)
            continue
        alpha = math.sqrt(alpha2)
        coeffs.append(resid / alpha)
        alphas.append(alpha)
        mode_generators.append(i)

    n = len(mode_generators)
    return QicModeSet(
        generators=generators,
        pairing=pairing,
        alphas=np.array(alphas),
        overlaps=overlaps[:, :n].copy(),
        coeffs=np.array(coeffs).reshape(n, k),
        mode_generators=tuple(mode_generators),
        skipped=tuple(skipped),
    )


def mode_gram(modes: QicModeSet) -> np.ndarray:
    """G[m, n] = <c_m, c_n> over the mode set.

    Re G = <{Q_m, Q_n}> and Im G = -(1/i)<[Q_m, Q_n]>; the entries with
    P_m <-> -i c_m follow by sesquilinearity.  So G is the identity exactly
    when the quadratures have covariance identity / 2 and the canonical
    commutators.
    """
    C = modes.coeffs
    return C.conj() @ (2.0 * modes.pairing.entries.conj()) @ C.T


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
    Each q/p pair is the real and imaginary view of one complex array.
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

    # per-generator mode function I and its time derivative dI at time t
    k = len(modes.generators)
    I, dI = np.empty((2, k, len(pts)), dtype=complex)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        def rows(fn, r):  # an evaluator's distinct radii and table rows, split over the pool
            return np.concatenate(list(pool.map(fn, np.array_split(r, 4 * threads))))

        for j, gen in enumerate(modes.generators):
            dx = np.linalg.norm(pts - np.asarray(gen.smearing.center), axis=1)
            I[j], dI[j] = ModeProfileEvaluator(gen, t, d, dx, tol=tol, rows=rows).evaluate(dx)

    # einsum sums each point's k terms in one fixed order, so points with
    # equal radii to every generator get equal bits (a BLAS product need not)
    C = modes.coeffs[selected]
    shape = (len(selected),) + spec.shape
    field = np.einsum("mk,kn->mn", -2j * C, dI).reshape(shape)  # q_field + i p_field
    momentum = np.einsum("mk,kn->mn", 2j * C, I).reshape(shape)  # q_momentum + i p_momentum
    return FieldGrid(
        dimension=d,
        t=float(t),
        spec=spec,
        mode_indices=tuple(selected),
        q_field=field.real,
        q_momentum=momentum.real,
        p_field=field.imag,
        p_momentum=momentum.imag,
    )
