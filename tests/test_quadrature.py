import math

import numpy as np

from qicsim import quadrature
from qicsim.quadrature import damped_tail_integral, segment_integrals


def damped_tail_per_rung(integrand, omega, eta0=0.04, n_eta=7, nodes=24):
    """Reference: each rung eta walks its own grid in 50000-segment chunks
    (the algorithm `damped_tail_integral` replaces), then the same fit."""
    h = math.pi / (omega + 1.0)
    etas = eta0 * 0.5 ** np.arange(n_eta)
    vals = np.empty(n_eta, dtype=complex)
    for j, eta in enumerate(etas):
        n = int(math.ceil(45.0 / eta / h))
        total = 0.0 + 0.0j
        for i0 in range(0, n, 50000):
            edges = h * np.arange(i0, min(i0 + 50000, n) + 1)
            total += segment_integrals(
                lambda k: integrand(k) * np.exp(-eta * k), edges, nodes
            ).sum()
        vals[j] = total
    cols = np.stack([np.ones_like(etas), etas, etas**2, etas**2 * np.log(etas),
                     etas**3, etas**3 * np.log(etas)], axis=1)
    coef, *_ = np.linalg.lstsq(cols, vals, rcond=None)
    coef_drop, *_ = np.linalg.lstsq(cols[1:], vals[1:], rcond=None)
    return complex(coef[0]), float(abs(coef[0] - coef_drop[0]))


def algebraic(k):
    return np.exp(2.5j * k) / (1.0 + k) ** 2


def test_damped_tail_matches_per_rung_reference_exactly():
    # omega = 3: the smallest rung spans two 50000-segment groups, and the
    # larger rungs end inside a sub-block
    value, err = damped_tail_integral(algebraic, omega=3.0)
    ref_value, ref_err = damped_tail_per_rung(algebraic, omega=3.0)
    assert value == ref_value and err == ref_err


def test_damped_tail_evaluates_each_node_once():
    points = []

    def counted(k):
        points.append(np.size(k))
        return algebraic(k)

    omega = 3.0
    damped_tail_integral(counted, omega)
    h = math.pi / (omega + 1.0)
    eta_min = quadrature.DAMPING_ETA0 * 0.5 ** (quadrature.DAMPING_RUNGS - 1)
    assert sum(points) == int(math.ceil(45.0 / eta_min / h)) * quadrature.DAMPING_NODES
