"""Release acceptance suite: one test per criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or in failure reports)."""

import math

import numpy as np
from _twin import brute_force_distribution

from qicsim.channel import distribution_from_moments, receiver_subsets, subset_label
from qicsim.field_kernel import ModeProfileEvaluator, pairing
from qicsim.qic import GridAxis, GridSpec, build_qic, weighting_grid
from qicsim.scenarios import shockwave_scenario, single_qic_scenario
from qicsim.smearing import RadialSmearing, ft_oracle, radial_ft
from qicsim.validate import run_checks

SIGMA = 0.2

TABLE1 = {
    3: (0.0, 3.39083e-5, 0.0, 3.45126e-5, 3.73605e-5, 0.0, 3.79689e-5),
    2: (0.00167331, 0.00872886, 0.0, 0.0102214, 0.0140338, 0.00167926, 0.0154962),
}
ZERO_TOL = 1e-8
REL_TOL = 5e-3  # 0.5 %


def _report(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{title}]: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)


def _check_row(result, d):
    refs = TABLE1[d]
    worst = 0.0
    for subset, ref in zip(receiver_subsets(3), refs):
        got = result.capacities[subset_label(subset)]
        if ref == 0.0:
            ok_entry = got <= ZERO_TOL
            worst = max(worst, got / ZERO_TOL)
        else:
            rel = abs(got - ref) / ref
            ok_entry = rel <= REL_TOL
            worst = max(worst, rel / REL_TOL)
        if not ok_entry:
            return False, subset, got, ref
    return True, None, worst, None


def test_acceptance_1_capacity_row_3d(captable_3):
    ok, bad_subset, info, ref = _check_row(captable_3, 3)
    _report(1, "capacity table, d=3, log base 2", ok,
            "all entries within tolerance" if ok else f"{bad_subset}: {info} vs {ref}")
    assert ok, (bad_subset, info, ref)


def test_acceptance_2_capacity_row_2d(captable_2):
    ok, bad_subset, info, ref = _check_row(captable_2, 2)
    _report(2, "capacity table, d=2, log base 2", ok,
            "all entries within tolerance" if ok else f"{bad_subset}: {info} vs {ref}")
    assert ok, (bad_subset, info, ref)


def test_acceptance_3_closed_form_constants():
    checks = []
    g3 = single_qic_scenario(3)[0]
    g2 = single_qic_scenario(2)[0]
    checks.append((pairing(g3, g3, 3).real, math.pi * SIGMA**4))
    checks.append((pairing(g2, g2, 2).real, math.pi**1.5 * SIGMA**3 / 2))
    checks.append((build_qic([g3], 3).alphas[0], math.sqrt(2 * math.pi) * SIGMA**2))
    checks.append((build_qic([g2], 2).alphas[0], math.pi**0.75 * SIGMA**1.5))
    worst = max(abs(got - ref) / ref for got, ref in checks)
    ok = worst <= 1e-10
    _report(3, "closed-form constants", ok, f"worst rel {worst:.2e}")
    assert ok


PROPERTY_CHECKS = (
    "ccr",
    "antisymmetry",
    "hermiticity",
    "microcausality",
    "normalization",
    "no-signaling",
)


def test_acceptance_4_property_suite():
    results = run_checks(only=list(PROPERTY_CHECKS))
    failed = [r for r in results if not r.passed]
    ok = not failed
    _report(4, "property suite", ok,
            f"{len(results)} checks" if ok else "; ".join(r.line() for r in failed))
    assert ok, failed


def test_acceptance_5_ordering_claims(captable_3, captable_2):
    problems = []
    for d, table in ((3, captable_3), (2, captable_2)):
        c = table.capacities
        if not c["B2"] < c["B2B3"]:
            problems.append(f"d={d}: B2 !< B2B3")
        if not c["B2"] < c["B1B2"]:
            problems.append(f"d={d}: B2 !< B1B2")
        if not c["B1B2"] < c["B1B2B3"]:
            problems.append(f"d={d}: B1B2 !< B1B2B3")
    if captable_3.capacities["B1"] > 1e-8:
        problems.append("d=3: inside-cone capacity not vanishing")
    if captable_2.capacities["B1"] < 1e-3:
        problems.append("d=2: inside-cone capacity below 1e-3")
    ok = not problems
    _report(5, "capacity orderings and light-cone interior", ok, "; ".join(problems))
    assert ok, problems


def _line(d, lo, hi, step=0.05):
    return GridSpec(axes=(GridAxis(lo, hi, step),) + (0.0,) * (d - 1))


def test_acceptance_6_figure_data():
    problems = []

    modes3 = build_qic(single_qic_scenario(3), 3)
    spec = _line(3, -6.0, 6.0)
    xs = spec.axes[0].values()
    fg0 = weighting_grid(modes3, 0, 0.0, spec)
    if np.abs(fg0.q_momentum).max() != 0.0 or np.abs(fg0.p_field).max() != 0.0:
        problems.append("momentum/second-quadrature weights nonzero at t=0")
    for t in (2.0, 4.0):
        fg = weighting_grid(modes3, 0, t, spec)
        ridge = abs(xs[np.abs(fg.q_momentum[0]).argmax()])
        if abs(ridge - t) > 2 * SIGMA:
            problems.append(f"d=3 ridge at t={t}: peak at {ridge}")

    modes2 = build_qic(single_qic_scenario(2), 2)
    tail2 = np.abs(weighting_grid(modes2, 0, 4.0, _line(2, -3.0, 3.0)).q_momentum[0]).mean()
    tail3 = np.abs(weighting_grid(modes3, 0, 4.0, _line(3, -3.0, 3.0)).q_momentum[0]).mean()
    if not tail2 > tail3:
        problems.append(f"interior tails: d2 {tail2} !> d3 {tail3}")

    for d in (3, 2):
        modes = build_qic(shockwave_scenario(d), d)
        spec_sw = _line(d, -2.0, 16.0)
        x_sw = spec_sw.axes[0].values()
        fg = weighting_grid(modes, None, 8.0, spec_sw)
        for arr in (fg.q_field, fg.q_momentum, fg.p_field, fg.p_momentum):
            if not np.all(np.isfinite(arr)):
                problems.append(f"d={d} shockwave grid has non-finite values")
        for i, gen in enumerate(modes.generators):
            radius = 8.0 - gen.coupling_time
            cx = gen.smearing.center[0]
            peak = x_sw[np.abs(fg.q_momentum[i]).argmax()]
            if min(abs(peak - (cx - radius)), abs(peak - (cx + radius))) > 2 * SIGMA:
                problems.append(f"d={d} mode {i}: front at {peak}, expected |x-{cx}|={radius}")

    ok = not problems
    _report(6, "figure-data reproduction", ok, "; ".join(problems))
    assert ok, problems


def test_acceptance_7_oracle_equivalences(table1_3, table1_2, moments_3, moments_2,
                                          damped_pairings):
    problems = []

    # radial transform vs direct spatial quadrature
    profiles = [
        RadialSmearing.gaussian(SIGMA, (0.3, -0.2, 0.5), 3),
        RadialSmearing.hard_ball(1.0, (0.0, 0.0, 0.0), 3),
        RadialSmearing.hard_shell(1.1, 2.9, (0.0, 0.0, 0.0), 3),
        RadialSmearing.gaussian(SIGMA, (0.1, 0.4), 2),
        RadialSmearing.hard_shell(3.1, 4.0, (0.0, 0.0), 2),
    ]
    rng = np.random.default_rng(61)
    worst_ft = 0.0
    for s in profiles:
        scale = s.sigma if s.kind == "gaussian" else s.r_outer
        for _ in range(12):
            k = float(rng.uniform(0.0, 50.0 / scale))
            n = rng.normal(size=s.dimension)
            n /= np.linalg.norm(n)
            closed = radial_ft(s, k) * np.exp(1j * float((k * n) @ np.asarray(s.center)))
            worst_ft = max(worst_ft, abs(closed - ft_oracle(s, k * n))
                           / (1.0 + abs(radial_ft(s, k))))
    if worst_ft > 1e-8:
        problems.append(f"transform oracle deviation {worst_ft:.2e}")

    # dual-quadrature pairing agreement
    worst_pair = 0.0
    for sc, d in ((table1_3, 3), (table1_2, 2)):
        for gi, gj, key in ((sc.bobs[1], sc.bobs[1], (d, 1, 1)),
                            (sc.bobs[1], sc.alice, (d, 1, "alice")),
                            (sc.bobs[2], sc.alice, (d, 2, "alice"))):
            fast = pairing(gi, gj, d)
            slow, _ = damped_pairings[key]
            worst_pair = max(worst_pair, abs(fast - slow) / (1.0 + abs(fast)))
    if worst_pair > 1e-8:
        problems.append(f"dual-quadrature deviation {worst_pair:.2e}")

    # exact time derivative vs finite differences
    gen = single_qic_scenario(3)[0]

    def mode_values(t, r):
        I, dI = ModeProfileEvaluator(gen, t, 3, r).evaluate([r])
        return I[0], dI[0]

    dt = 1e-4
    worst_fd = 0.0
    for _ in range(50):
        t = float(rng.uniform(-6, 6))
        r = float(np.linalg.norm(rng.uniform(-5, 5, size=3)))  # generator at the origin
        fd = (mode_values(t + dt, r)[0] - mode_values(t - dt, r)[0]) / (2 * dt)
        worst_fd = max(worst_fd, abs(fd - mode_values(t, r)[1]))
    if worst_fd > 1e-6:
        problems.append(f"time-derivative deviation {worst_fd:.2e}")

    # full distribution vs brute-force twin fed with oracle pairings
    worst_p = 0.0
    for sc, d, moments in ((table1_3, 3, moments_3), (table1_2, 2, moments_2)):
        n = len(sc.bobs)
        cov = np.zeros((n, n))
        sig = np.zeros(n)
        for i in range(n):
            for j in range(i, n):
                val, _ = damped_pairings[d, i, j]
                cov[i, j] = cov[j, i] = val.real
            val, _ = damped_pairings[d, i, "alice"]
            sig[i] = val.imag
        lams = [b.coupling for b in sc.bobs]
        for bit in (0, 1):
            ours = distribution_from_moments(moments, lams, sc.alice.coupling * float(bit))
            twin = brute_force_distribution(cov, sig, lams, sc.alice.coupling * bit)
            for z, p in twin.items():
                worst_p = max(worst_p, abs(ours[z] - p))
    if worst_p > 1e-10:
        problems.append(f"brute-force distribution deviation {worst_p:.2e}")

    ok = not problems
    _report(7, "oracle equivalences", ok,
            "; ".join(problems) if problems else
            f"ft {worst_ft:.1e}, pairing {worst_pair:.1e}, dt {worst_fd:.1e}, p {worst_p:.1e}")
    assert ok, problems
