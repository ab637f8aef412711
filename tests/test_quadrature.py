import math
import os
import threading
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import sici

from qicsim import quadrature
from qicsim.errors import ConfigurationError, QuadratureError
from qicsim.quadrature import (
    damped_tail_integral,
    expint,
    oscillatory_integral,
    power_tails,
    segment_integrals,
)


def damped_tail_per_rung(integrand, omega, eta0=0.04, n_eta=7, nodes=quadrature.DAMPING_NODES):
    """Reference: each rung eta walks its own grid in DAMPING_BLOCK-segment
    blocks, adding each block's sum in order (the algorithm
    `damped_tail_integral` replaces), then the same fit."""
    h = quadrature.DAMPING_PHASE / (omega + 1.0)
    etas = eta0 * 0.5 ** np.arange(n_eta)
    vals = np.empty(n_eta, dtype=complex)
    for j, eta in enumerate(etas):
        n = int(math.ceil(quadrature.DAMPING_CUTOFF / eta / h))
        total = 0.0 + 0.0j
        for i0 in range(0, n, quadrature.DAMPING_BLOCK):
            edges = h * np.arange(i0, min(i0 + quadrature.DAMPING_BLOCK, n) + 1)
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
    # omega = 3: the smallest rung spans many blocks, and the larger rungs
    # end inside a block; omega = 2.2685: rungs 2-6 end exactly on a block's
    # last segment (625, 1250, ..., 10000 segments)
    for omega in (3.0, 2.2685):
        value, err = damped_tail_integral(algebraic, omega=omega)
        ref_value, ref_err = damped_tail_per_rung(algebraic, omega=omega)
        assert value == ref_value and err == ref_err


def test_damped_tail_evaluates_each_node_once():
    points = []

    def counted(k):
        points.append(np.size(k))
        return algebraic(k)

    omega = 3.0
    damped_tail_integral(counted, omega)
    h = quadrature.DAMPING_PHASE / (omega + 1.0)
    eta_min = quadrature.DAMPING_ETA0 * 0.5 ** (quadrature.DAMPING_RUNGS - 1)
    assert sum(points) == int(math.ceil(quadrature.DAMPING_CUTOFF / eta_min / h)) * quadrature.DAMPING_NODES


def test_damped_tail_grid_premises():
    # the cutoff: e^{-DAMPING_CUTOFF} <= eps exactly (Decimal's exp is
    # correctly rounded), so rung eta's damping past DAMPING_CUTOFF / eta is
    # below double rounding
    assert Decimal(-quadrature.DAMPING_CUTOFF).exp() <= Decimal(np.finfo(float).eps)
    # the nodes: DAMPING_NODES integrate e^{i theta k} over one segment of
    # phase 6 pi (the largest a segment of DAMPING_PHASE/(omega + 1) meets) to
    # rounding, and 20 nodes do not
    def miss(theta, nodes):
        rule = segment_integrals(lambda k: np.exp(1j * theta * k), np.array([0.0, 1.0]), nodes)[0]
        return abs(rule - (np.exp(1j * theta) - 1.0) / (1j * theta))

    assert quadrature.DAMPING_PHASE == 6.0 * math.pi
    for theta in (quadrature.DAMPING_PHASE, -quadrature.DAMPING_PHASE):
        assert miss(theta, quadrature.DAMPING_NODES) <= quadrature.ROUNDING
        assert miss(theta, 20) > quadrature.ROUNDING
    # the A&S 25.4.30 remainder over that segment, per unit length, in exact
    # integer arithmetic: (6 pi)^2n (n!)^4 / ((2n + 1) ((2n)!)^3) <= 1e-26, pi < 22/7
    n = quadrature.DAMPING_NODES
    assert (Fraction(6 * 22, 7) ** (2 * n) * math.factorial(n) ** 4
            / ((2 * n + 1) * math.factorial(2 * n) ** 3)) <= Fraction(1, 10**26)


@pytest.mark.parametrize("omega", [math.inf, math.nan, -1.0, -2.0])
def test_damped_tail_rejects_bad_omega(omega):
    def never(k):
        raise AssertionError("the integrand is evaluated")

    with pytest.raises(ConfigurationError, match="omega"):
        damped_tail_integral(never, omega)


def test_damped_tail_refuses_a_grid_over_budget_before_any_evaluation():
    def never(k):
        raise AssertionError("the integrand is evaluated")

    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match=r"omega = 1000000\.0 needs 3059483382 segments "
                                                 r"> DAMPING_SEGMENTS = 1048576"):
        damped_tail_integral(never, 1e6)
    assert time.perf_counter() - start < 1.0


def test_damped_tail_bytes_do_not_depend_on_cpu_count(monkeypatch):
    def hexes():
        value, err = damped_tail_integral(algebraic, omega=3.0)
        return value.real.hex(), value.imag.hex(), err.hex()

    every = hexes()
    for cpus in ({0}, {0, 1, 2}):  # a pool of one thread; of three, over the same fixed blocks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert hexes() == every


def test_damped_tail_integrand_error_propagates_and_pool_stops():
    late = ConfigurationError("late block")

    def failing(k):
        if k.min() > 50000.0:  # segment ~10600 of ~12200
            raise late
        return algebraic(k)

    before = threading.active_count()
    with pytest.raises(ConfigurationError) as info:
        damped_tail_integral(failing, omega=3.0)
    assert info.value is late
    assert threading.active_count() == before


# (p, x, Re E_p(-i x), Im E_p(-i x)) to 30 significant digits, computed once
# with mpmath.expint at 40-digit working precision; the test suite does not
# depend on mpmath, so the values are recorded here
EXPINT_REFERENCE = (
    (-0.5, 1e-12, "-626657068657750145.176869644166", "626657068657750144.510202977499"),
    (-0.5, -1.5, "-0.722655442859881586133185955187", "0.143237761131304616799699344133"),
    (-0.5, 3.7, "0.175181742738439019869352968305", "-0.214139855309945254687969852404"),
    (0.0, -1e-05, "-0.99999999998333333333341666394", "-99999.9999949999918197362748545"),
    (0.0, 2.0, "-0.454648713412840847698009932956", "-0.20807341827357119349878411475"),
    (0.0, -40.0, "-0.0186278290119837196746927350659", "0.0166734515413065461096023195483"),
    (0.5, 0.3, "0.306153237737369103769779619605", "2.08951012040696355691369683173"),
    (0.5, -3.7, "0.111565134127221168666993458474", "0.236672614447462081543055719481"),
    (0.5, 10000.0, "0.0000305566778829516765550152396345", "-0.0000952170641836721599867735435244"),
    (1.0, -1.5, "-0.470356317195399886675082152237", "-0.246112795622776938860848844765"),
    (1.0, 40.0, "-0.0190200078962087669619812034203", "-0.0161887925598878875443442703749"),
    (1.0, -1e-12, "27.0538054510270153677227379869", "-1.57079632679389661923132169166"),
    (1.5, 2.0, "-0.386706529603631636639916655707", "0.0227277702850489565679848843717"),
    (1.5, -10000.0, "0.0000305471554134972546973491621516", "0.0000952201174707516215152777743634"),
    (1.5, 1e-05, "1.99207334543812131098231195703", "0.00790665459521208901593293953847"),
    (2.0, -3.7, "0.0318537783987533397658961184482", "0.226802436156588932022350169954"),
    (2.0, 1e-12, "0.999999999998429203673205603412", "2.80538054510270148034666634434e-11"),
    (2.0, -0.3, "0.573648804229249996414129455209", "-0.490272086552688091384907705745"),
    (3.0, 40.0, "-0.0197259234460930923612717074794", "-0.0151706048952524587125846374433"),
    (3.0, -1e-05, "0.499999999378214509996356791055", "-0.00000999992146035032773985311691036"),
    (3.0, 1.5, "-0.183601782274364495652730181373", "0.274923499477180341818549123786"),
    (4.5, -10000.0, "0.000030518584348618910630957491458", "0.0000952292659026510120531921043741"),
    (4.5, 0.3, "0.257864017585765559208982153404", "0.113810839620939854288869705774"),
    (4.5, -2.0, "-0.186059688309323263763412454506", "-0.123267609179520419678295130718"),
    (6.0, 1e-12, "0.199999999999999999999999833333", "2.49999999999999994971661823981e-13"),
    (6.0, -1.5, "-0.0478528818787109652040050137646", "-0.17772582570116956616511035937"),
    (6.0, 3.7, "-0.0519911557694132212246834814232", "-0.138204930803666168283777599365"),
    (7.5, -1e-05, "0.153846153835042735042901707584", "-0.00000181818181813419928293251504124"),
    (7.5, 2.0, "-0.0984154332640135287107217312174", "0.103254561517844287842092293944"),
    (7.5, -40.0, "-0.0209074763897266638673901269024", "0.0127186962602034825782241619134"),
    (9.0, 0.3, "0.117583874193277204924065298762", "0.0419638519661097021127670862821"),
    (9.0, -3.7, "-0.0572852497903309565035858163194", "0.0928392078568524348248966754052"),
    (9.0, 10000.0, "0.0000304757174946864441871842108161", "-0.0000952429563967756230563531263804"),
    (10.5, -1.5, "-0.0105415182722876529343569562168", "-0.102759622609049394282747341473"),
    (10.5, 40.0, "-0.0213777693845866050238953923675", "-0.0110349182077550296175492798748"),
    (10.5, -1e-12, "0.105263157894736842105263091228", "-1.17647058823529409398429107213e-13"),
    (12.0, 2.0, "-0.0519464953758837426275075988445", "0.0720436253789320120072494818043"),
    (12.0, -10000.0, "0.000030447132776839818135622604063", "0.0000952520619498965298820443882705"),
    (12.0, 1e-05, "0.0909090909035353535354130582541", "0.000000999999999979166748469859464474"),
)


def test_expint_matches_recorded_values():
    p, x, re, im = zip(*EXPINT_REFERENCE)
    got = expint(np.array(p), -1j * np.array(x))
    want = np.array([complex(float(a), float(b)) for a, b in zip(re, im)])
    assert np.all(np.abs(got - want) <= 2e-14 * np.abs(want)), np.abs(got / want - 1).max()


def test_power_tail_sums_merged_terms_and_flags_divergence():
    # sin(k)^2 / k^2 = (2 - e^{2ik} - e^{-2ik}) / (4 k^2), its constant split over two
    # terms; int_3^inf = 1/6 - (cos(6) / 3 - pi + 2 Si(6)) / 2
    terms = (np.array([0.25, 0.25, -0.25, -0.25]), np.full(4, 2.0), np.array([0.0, -0.0, 2.0, -2.0]))
    value, mag = power_tails([(terms, 3.0)])[0]
    exact = 1.0 / 6.0 - 0.5 * (math.cos(6.0) / 3.0 - math.pi + 2.0 * sici(6.0)[0])
    assert value == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert mag >= abs(value)
    with pytest.raises(ConfigurationError, match="diverges"):
        power_tails([((np.array([1.0]), np.array([1.0]), np.array([0.0])), 3.0)])
    # omega = 0 terms that cancel exactly leave nothing to diverge
    cancelled = (np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]))
    alone = (np.array([1.0]), np.array([2.0]), np.array([1.0]))
    assert power_tails([(cancelled, 3.0)]) == power_tails([(alone, 3.0)])



def test_expint_raises_past_its_step_cap(monkeypatch):
    # |z| = 30 takes the continued fraction, which needs more than one step
    monkeypatch.setattr(quadrature, "EXPINT_STEPS", 1)
    with pytest.raises(QuadratureError, match="^E_p continued fraction: no convergence in 1 steps$"):
        expint(np.array([2.5, 3.0]), np.array([-30j, 0.5j]))


def test_power_tails_equal_one_call_per_plan():
    # term sets of the shapes `field_kernel._expansion` makes: half-integer and
    # integer powers, repeated and zero frequencies, |omega K| on both sides of
    # EXPINT_CUT, and a set whose terms all have omega = 0
    rng = np.random.default_rng(20)
    sets = []
    for n in (1, 7, 40, 64, 3):
        p = rng.choice([2.0, 2.5, 3.0, 3.5, 4.0, 5.5], size=n)
        omega = rng.choice([0.0, 0.01, -0.3, 1.7, -4.2, 9.0], size=n) * (n != 3)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        sets.append(((c, p, omega), float(rng.uniform(0.5, 40.0))))
    batched = power_tails(sets)
    alone = [power_tails([x])[0] for x in sets]
    assert [(v.real.hex(), v.imag.hex(), m.hex()) for v, m in batched] == \
        [(v.real.hex(), v.imag.hex(), m.hex()) for v, m in alone]
    assert power_tails([]) == []


@pytest.mark.parametrize("k_split", (2.0, 30.0))
def test_oscillatory_integral_of_sinc_squared(k_split):
    # int_0^inf sin^2 k / k^2 dk = pi / 2; the body's estimate covers the error
    terms = (np.array([0.5, -0.25, -0.25]), np.full(3, 2.0), np.array([0.0, 2.0, -2.0]))
    tail, mag = power_tails([(terms, k_split)])[0]
    value, err = oscillatory_integral(lambda k: np.sinc(k / np.pi) ** 2 + 0j,
                                      (tail, quadrature.ROUNDING * mag), k_split, 2.0)
    assert abs(value - math.pi / 2) <= err <= 1e-10 * math.pi / 2
