"""Release-gate invariant checks, shared by the CLI and the test suite.

Each check returns a `CheckResult` with the measured residual so failures
are diagnosable from the report alone.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import capacity_table, marginalize
from .errors import ConfigurationError
from .field_kernel import pairing
from .qic import Generator, build_qic, mode_gram
from .scenarios import shockwave_scenario, single_qic_scenario, table1_scenario
from .smearing import RadialSmearing


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    note: str = ""
    compare: str = "<="  # passed = residual <compare> threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.name}: residual {self.residual:.3e} ({self.compare} {self.threshold:.1e})"
        return out + (f"  [{self.note}]" if self.note else "")


def _result(name, residual, threshold, note="", compare="<="):
    passed = {"<=": operator.le, ">": operator.gt, ">=": operator.ge}[compare](residual, threshold)
    return CheckResult(name, passed, float(residual), threshold, note, compare)


@functools.cache
def _table1(d: int):
    """table1's capacity table in dimension d, with its moments and outcome
    distributions, built once for every check that reads them."""
    return capacity_table(table1_scenario(d), base=2)


def check_closed_form_constants() -> list[CheckResult]:
    out = []
    for d, o2_ref, a_ref in (
        (3, math.pi * 0.2**4, math.sqrt(2 * math.pi) * 0.2**2),
        (2, math.pi**1.5 * 0.2**3 / 2, math.pi**0.75 * 0.2**1.5),
    ):
        gen = single_qic_scenario(d)[0]
        o2 = pairing(gen, gen, d).real
        modes = build_qic([gen], d)
        r1 = abs(o2 - o2_ref) / o2_ref
        r2 = abs(modes.alphas[0] - a_ref) / a_ref
        out.append(_result(f"closed-form d={d}", max(r1, r2), 1e-10))
    return out


def check_ccr_purity() -> list[CheckResult]:
    out = []
    for d in (3, 2):
        modes = build_qic(shockwave_scenario(d), d)
        n = modes.n_modes
        residual = np.abs(mode_gram(modes) - np.eye(n)).max()
        out.append(_result(f"ccr/purity d={d}", residual, 1e-8,
                           f"{n}-mode set"))
    return out


def _random_generators(rng, d, n):
    gens = []
    for _ in range(n):
        center = tuple(rng.uniform(-3, 3, size=d))
        t = float(rng.uniform(-2, 2))
        if rng.random() < 0.5:
            s = RadialSmearing.gaussian(rng.uniform(0.15, 0.6), center, d)
        else:
            r = rng.uniform(0.0, 1.5)
            s = RadialSmearing.hard_shell(r, r + rng.uniform(0.3, 2.0), center, d)
        gens.append(Generator(smearing=s, coupling_time=t))
    return gens


def check_antisymmetry() -> list[CheckResult]:
    """[O, f(O')] = -[f(O), O'] evaluated from independently computed
    pairings of both orientations."""
    rng = np.random.default_rng(11)
    gens = _random_generators(rng, 3, 4)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            s_ij = pairing(gens[i], gens[j], 3, tol=1e-11)
            s_ji = pairing(gens[j], gens[i], 3, tol=1e-11)
            # (1/i)<[O_i, f(O_j)]> = 2 Re S_ij ; (1/i)<[f(O_i), O_j]> = -2 Re S_ij
            worst = max(worst, abs(2 * s_ij.real - 2 * s_ji.real))
    return [_result("commutator antisymmetry", worst, 1e-10, "random 4-generator set")]


def check_hermiticity() -> list[CheckResult]:
    rng = np.random.default_rng(13)
    worst = 0.0
    for d in (3, 2):
        gens = _random_generators(rng, d, 8)
        for _ in range(10):
            i, j = rng.integers(0, len(gens), size=2)
            a = pairing(gens[i], gens[j], d)
            b = pairing(gens[j], gens[i], d)
            worst = max(worst, abs(a - np.conjugate(b)))
    return [_result("pairing hermiticity", worst, 1e-9, "sampled pairs, both dims")]


def check_microcausality() -> list[CheckResult]:
    return [_result(f"microcausality d={d}", abs(_table1(d).moments.signal_im[2]), 1e-9,
                    "spacelike sender/outside-shell pairing") for d in (3, 2)]


def check_normalization() -> list[CheckResult]:
    worst = 0.0
    for d in (3, 2):
        for p in _table1(d).distributions:
            worst = max(worst, abs(p.sum() - 1.0), -min(p.min(), 0.0))
    return [_result("distribution normalization", worst, 1e-10)]


def check_no_signaling() -> list[CheckResult]:
    out = []
    for d in (3, 2):
        p0, p1 = (marginalize(p, (2,)) for p in _table1(d).distributions)
        out.append(_result(f"no-signaling d={d}", float(np.abs(p0 - p1).max()), 1e-9,
                           "outside-detector marginals agree across bits"))
    return out


def check_superadditivity() -> list[CheckResult]:
    out = []
    for d in (3, 2):
        c = _table1(d).capacities
        margin = min(
            c["B2B3"] - c["B2"],
            c["B1B2"] - c["B2"],
            c["B1B2B3"] - c["B1B2"],
        )
        out.append(_result(f"superadditivity d={d}", margin, 0.0, "capacity gains, must be > 0", ">"))
    return out


def check_huygens() -> list[CheckResult]:
    c3, c2 = (_table1(d).capacities["B1"] for d in (3, 2))
    return [
        _result("strong-huygens d=3", c3, 1e-8, "inside-cone capacity vanishes"),
        _result("huygens-violation d=2", c2, 1e-3, "inside-cone capacity >= 1e-3", ">="),
    ]


CHECKS = {
    "closed-form": check_closed_form_constants,
    "ccr": check_ccr_purity,
    "antisymmetry": check_antisymmetry,
    "hermiticity": check_hermiticity,
    "microcausality": check_microcausality,
    "normalization": check_normalization,
    "no-signaling": check_no_signaling,
    "superadditivity": check_superadditivity,
    "huygens": check_huygens,
}


def run_checks(only=None) -> list[CheckResult]:
    if only:
        unknown = [name for name in only if name not in CHECKS]
        if unknown:
            raise ConfigurationError(
                f"unknown checks {unknown}; available: {sorted(CHECKS)}"
            )
        names = [n for n in CHECKS if n in set(only)]
    else:
        names = list(CHECKS)
    results = []
    for name in names:
        results.extend(CHECKS[name]())
    return results
