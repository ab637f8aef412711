import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy.special import hyp2f1

from oracles import spacelike_separated
from qicsim.errors import ConfigurationError, QuadratureError
from qicsim.field_kernel import (
    ENVELOPE_RATE,
    ModeProfileEvaluator,
    _gaussian_mode_closed,
    _pair_geometry,
    _radial_integrand,
    _tail_plan,
    pairing,
    pairing_damped,
    pairing_detail,
    pairing_matrix,
    pairings,
    radial_integral,
)
from qicsim.qic import Generator
from qicsim.quadrature import DAMPING_NODES, MAX_SEGMENTS, segment_integrals
from qicsim.scenarios import shockwave_scenario
from qicsim.smearing import RadialSmearing, ft_frequencies, ft_gauss_decay, radial_ft

SIGMA = 0.2


def gen_gaussian(d, center=None, t=0.0, sigma=SIGMA):
    center = center if center is not None else (0.0,) * d
    return Generator(RadialSmearing.gaussian(sigma, center, d), coupling_time=t)


def gen_shell(d, r, rr, center=None, t=0.0):
    center = center if center is not None else (0.0,) * d
    return Generator(RadialSmearing.hard_shell(r, rr, center, d), coupling_time=t)


def mode_values(gen, t, x, d):
    """I(t, x) and dI/dt(t, x) through the grid evaluator, at r = |x - x0|."""
    r = float(np.linalg.norm(np.subtract(x, gen.smearing.center)))
    I, dI = ModeProfileEvaluator(gen, t, d, r).evaluate([r])
    return complex(I[0]), complex(dI[0])


def quadrature_mode(gen, t, r, d, derivative=False):
    """I(t, r) or dI/dt by `radial_integral` with no scale: the certified rule
    for a Gaussian, the oscillatory quadrature for a hard shell."""
    return radial_integral(d, float(r), t - gen.coupling_time, (gen.smearing,), derivative)[0]


def gaussian_reference(d, dx, tau, profiles, derivative=False):
    """An independent reference for integrands with a Gaussian factor, sharing
    only the integrand with production: 24 Gauss-Legendre nodes per segment up
    to the envelope's e^-92 point, segments no longer than 1/sqrt(g) or half
    the fastest period, and the last segment's magnitude as the estimate."""
    integrand = _radial_integrand(d, dx, tau, profiles, derivative)
    gauss_decay = sum(ft_gauss_decay(s) for s in profiles)
    omega = abs(tau) + dx + sum(max(ft_frequencies(s), default=0.0) for s in profiles)
    h = min(math.pi / max(omega, 0.5), 1.0 / math.sqrt(gauss_decay))
    k_cut = math.sqrt(184.0 / gauss_decay)
    n = max(int(math.ceil(k_cut / h)), 4)
    if n > MAX_SEGMENTS:
        raise QuadratureError(f"Gaussian integral: {n} segments > max_segments={MAX_SEGMENTS}")
    edges = h * np.arange(n + 1)
    seg = segment_integrals(integrand, edges)
    total = seg.sum()
    scale = max(np.abs(seg).sum(), abs(total))
    err = abs(seg[-1]) + 1e-15 * scale
    return complex(total), float(err)


def random_generator(rng, d, kind=None):
    center = tuple(rng.uniform(-3, 3, size=d))
    t = float(rng.uniform(-2, 2))
    if kind == "gaussian" or (kind is None and rng.random() < 0.5):
        return gen_gaussian(d, center, t, sigma=float(rng.uniform(0.15, 0.6)))
    r = float(rng.uniform(0.0, 1.5))
    return gen_shell(d, r, r + float(rng.uniform(0.3, 2.0)), center, t)


class TestPairingClosedForms:
    def test_gaussian_self_pairing_3d(self):
        g = gen_gaussian(3)
        val = pairing(g, g, 3)
        assert val.real == pytest.approx(math.pi * SIGMA**4, rel=1e-10)
        assert val.imag == 0.0

    def test_gaussian_self_pairing_2d(self):
        g = gen_gaussian(2)
        val = pairing(g, g, 2)
        assert val.real == pytest.approx(math.pi**1.5 * SIGMA**3 / 2, rel=1e-10)
        assert val.imag == 0.0

    def test_gaussian_pair_matches_dawson_form(self):
        # product of two gaussian transforms is itself gaussian, so the
        # pairing must equal the rescaled closed-form mode integral
        rng = np.random.default_rng(5)
        for _ in range(10):
            s1, s2 = rng.uniform(0.15, 0.5, size=2)
            c1 = tuple(rng.uniform(-2, 2, size=3))
            c2 = tuple(rng.uniform(-2, 2, size=3))
            t1, t2 = rng.uniform(-3, 3, size=2)
            g1 = gen_gaussian(3, c1, t1, s1)
            g2 = gen_gaussian(3, c2, t2, s2)
            se = math.sqrt(s1**2 + s2**2)
            scale = (2 * math.pi) ** 1.5 * (s1 * s2) ** 3 / se**3
            dx = float(np.linalg.norm(np.subtract(c1, c2)))
            I, _ = _gaussian_mode_closed(se, t1 - t2, np.atleast_1d(dx))
            assert pairing(g1, g2, 3) == pytest.approx(scale * complex(I[0]), rel=1e-10)


def test_hermiticity_50_random_pairs():
    rng = np.random.default_rng(23)
    for d, count in ((3, 30), (2, 20)):
        for _ in range(count):
            gi, gj = random_generator(rng, d), random_generator(rng, d)
            a = pairing(gi, gj, d)
            b = pairing(gj, gi, d)
            assert abs(a - np.conjugate(b)) <= 1e-9 * (1.0 + abs(a))


def test_gaussian_pairings_match_fixed_panel_reference():
    # seeded Gaussian-Gaussian, Gaussian-shell and shell-Gaussian pairs: the
    # certified rule agrees with the reference within both estimates, and its
    # estimate is within tol sqrt(S_ii S_jj)
    rng = np.random.default_rng(67)
    tol = 1e-10
    for d in (2, 3):
        for kinds in (("gaussian", "gaussian"), ("gaussian", "hard_shell"),
                      ("hard_shell", "gaussian")):
            for _ in range(25):
                gi, gj = (random_generator(rng, d, kind) for kind in kinds)
                val, err = pairing_detail(gi, gj, d, tol)
                ref, ref_err = gaussian_reference(d, *_pair_geometry(gi, gj),
                                                  (gi.smearing, gj.smearing))
                scale = math.sqrt(pairing(gi, gi, d).real * pairing(gj, gj, d).real)
                assert abs(val - ref) <= err + ref_err, (d, kinds, val, ref)
                assert err <= tol * scale, (d, kinds, err, scale)


def test_damped_oracle_covers_gaussian_pairs():
    # seeded compact Gaussian-Gaussian and Gaussian-shell pairs: the damped
    # oracle takes the shells' path (it misses by ~1.15x its own estimate),
    # so twice its estimate covers its own error
    rng = np.random.default_rng(79)

    def compact(d, kind):  # the damped oracle's cost grows with the frequencies
        center, t = tuple(rng.uniform(-0.75, 0.75, size=d)), float(rng.uniform(-0.75, 0.75))
        if kind == "gaussian":
            return gen_gaussian(d, center, t, sigma=float(rng.uniform(0.15, 0.6)))
        r = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 0.8))
        return gen_shell(d, r, r + float(rng.uniform(0.3, 0.8)), center, t)

    for d in (2, 3):
        for kinds in (("gaussian", "gaussian"), ("gaussian", "hard_shell"),
                      ("hard_shell", "gaussian")):
            gi, gj = compact(d, kinds[0]), compact(d, kinds[1])
            val, _ = pairing_detail(gi, gj, d)
            damped, damped_err = pairing_damped(gi, gj, d)
            scale = math.sqrt(pairing(gi, gi, d).real * pairing(gj, gj, d).real)
            assert abs(val - damped) <= 1e-9 * scale + 2.0 * damped_err, (d, kinds, val, damped)


def test_damped_oracle_resolves_wide_gaussian_envelopes():
    # concentric wide Gaussians at one time: every phase frequency is 0, so
    # only the envelope's rate ENVELOPE_RATE sqrt(g_i + g_j) sizes the damped grid
    for d in (2, 3):
        gi, gj = gen_gaussian(d, sigma=2.0), gen_gaussian(d, sigma=1.5)
        val, _ = pairing_detail(gi, gj, d)
        damped, damped_err = pairing_damped(gi, gj, d)
        scale = math.sqrt(pairing(gi, gi, d).real * pairing(gj, gj, d).real)
        assert abs(val - damped) <= 1e-9 * scale + 2.0 * damped_err, (d, val, damped, damped_err)


def test_envelope_rate_bounds_the_gaussian_derivatives():
    # the m-th derivative of e^{-x^2/2} is (-1)^m He_m(x) e^{-x^2/2} (x = sqrt(g) k
    # scales the m-th by sqrt(g)^m); on a grid much finer than He_48's zero spacing
    # (~0.3) and past its largest zero (~13.9): Cramer's |He_m| e^{-x^2/4} <= 1.0865
    # sqrt(m!), and |He_m| e^{-x^2/2} <= ENVELOPE_RATE^m (4.34^m at 24 nodes, not
    # the width's 1^m) for every order the damped rule's remainder meets, m <= 2 DAMPING_NODES
    two_n = 2 * DAMPING_NODES
    assert ENVELOPE_RATE == (1.0865 * math.sqrt(math.factorial(two_n))) ** (1.0 / two_n)
    x = np.linspace(-20.0, 20.0, 40001)
    he = np.abs(hermite_e.hermevander(x, two_n))
    for m in range(1, two_n + 1):
        assert np.max(he[:, m] * np.exp(-0.25 * x * x)) <= 1.0865 * math.sqrt(math.factorial(m)), m
        assert np.max(he[:, m] * np.exp(-0.5 * x * x)) <= ENVELOPE_RATE**m, m


def test_damped_oracle_rejects_an_overflowing_time():
    for d in (2, 3):
        with pytest.raises(ConfigurationError, match="omega"):
            pairing_damped(gen_shell(d, 0.0, 1.0, t=-1e308), gen_shell(d, 0.0, 1.0, t=1e308), d)


class TestMicrocausality:
    def test_spacelike_table_pairs(self, table1_3, table1_2):
        for sc, d in ((table1_3, 3), (table1_2, 2)):
            assert spacelike_separated(sc.bobs[2], sc.alice)
            val = pairing(sc.bobs[2], sc.alice, d)
            assert abs(val.imag) <= 1e-9

    def test_null_overlapping_pair_does_not_commute(self, table1_3):
        val = pairing(table1_3.bobs[1], table1_3.alice, 3)
        assert abs(val.imag) > 1e-3

    def test_random_spacelike_shells(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            d = int(rng.choice((2, 3)))
            r1 = float(rng.uniform(0.2, 1.0))
            r2 = float(rng.uniform(0.2, 1.0))
            dt = float(rng.uniform(0.0, 1.5))
            gap = r1 + r2 + dt + float(rng.uniform(0.3, 2.0))
            c2 = (gap,) + (0.0,) * (d - 1)
            g1 = gen_shell(d, 0.0, r1, t=0.0)
            g2 = gen_shell(d, 0.0, r2, center=c2, t=dt)
            assert spacelike_separated(g1, g2)
            assert abs(pairing(g1, g2, d).imag) <= 1e-9


def test_dual_quadrature_agreement_scenario_pairs(table1_3, table1_2, damped_pairings):
    pairs = []
    for sc, d in ((table1_3, 3), (table1_2, 2)):
        pairs.append((sc.bobs[1], sc.bobs[1], (d, 1, 1)))  # shell self-pairing (slow tail)
        pairs.append((sc.bobs[1], sc.bobs[2], (d, 1, 2)))
        pairs.append((sc.bobs[0], sc.alice, (d, 0, "alice")))
        pairs.append((sc.bobs[1], sc.alice, (d, 1, "alice")))
        pairs.append((sc.bobs[2], sc.alice, (d, 2, "alice")))
    for gi, gj, key in pairs:
        d = key[0]
        fast, err_fast = pairing_detail(gi, gj, d)
        slow, err_slow = damped_pairings[key]
        assert abs(fast - slow) <= 1e-8 * (1.0 + abs(fast)), (d, fast, slow)
        assert err_fast <= 1e-9 * (1.0 + abs(fast))


class TestModeFunction:
    def test_closed_form_matches_quadrature_3d(self):
        g = gen_gaussian(3)
        rng = np.random.default_rng(31)
        for _ in range(12):
            t = float(rng.uniform(-6, 6))
            x = rng.uniform(-5, 5, size=3)
            closed = mode_values(g, t, x, 3)[0]
            quad = quadrature_mode(g, t, np.linalg.norm(x), 3)
            assert abs(closed - quad) <= 1e-8 * (1.0 + abs(closed))

    def test_imaginary_part_vanishes_at_coupling_time(self):
        # at t = t0 the operator contains only the field, not its momentum
        for gen, d in ((gen_gaussian(3), 3), (gen_gaussian(2), 2),
                       (gen_shell(3, 1.1, 2.9), 3)):
            for r in (0.0, 0.7, 2.4):
                x = (r,) + (0.0,) * (d - 1)
                val = mode_values(gen, gen.coupling_time, x, d)[0]
                assert abs(val.imag) <= 1e-12 * (1.0 + abs(val))

    def test_2d_lightcone_ridge_value_dual_checked(self):
        from qicsim.quadrature import damped_tail_integral

        g = gen_gaussian(2)
        x = (4.0, 0.0)
        t = 4.0
        primary = mode_values(g, t, x, 2)[0]
        assert np.isfinite(primary.real) and np.isfinite(primary.imag)
        assert abs(primary) > 1e-4

        from qicsim.field_kernel import _kernel, _measure
        from qicsim.smearing import radial_ft

        def integrand(k):
            return (_measure(2, k) * _kernel(2, 4.0, k)
                    * radial_ft(g.smearing, k) * np.exp(1j * k * t))

        oracle, _ = damped_tail_integral(integrand, omega=4.0 + 4.0)
        assert abs(primary - oracle) <= 1e-8 * (1.0 + abs(primary))

    def test_small_and_large_radius_branches_join(self):
        g = gen_gaussian(3)
        s2 = math.sqrt(2.0) * SIGMA
        for t in (1.0, 4.0):
            below = mode_values(g, t, (0.999e-3 * s2, 0, 0), 3)[0]
            above = mode_values(g, t, (1.001e-3 * s2, 0, 0), 3)[0]
            assert abs(below - above) <= 1e-9 * (1.0 + abs(above))


class TestModeFunctionDt:
    def test_matches_finite_differences_50_points(self):
        g = gen_gaussian(3)
        rng = np.random.default_rng(37)
        dt = 1e-4
        for _ in range(50):
            t = float(rng.uniform(-6, 6))
            x = rng.uniform(-5, 5, size=3)
            fd = (mode_values(g, t + dt, x, 3)[0]
                  - mode_values(g, t - dt, x, 3)[0]) / (2 * dt)
            exact = mode_values(g, t, x, 3)[1]
            assert abs(fd - exact) <= 1e-6

    @pytest.mark.parametrize("gen,d", [
        (gen_shell(3, 1.1, 2.9), 3),
        (gen_gaussian(2), 2),
        (gen_shell(2, 0.0, 0.9), 2),
    ], ids=("shell3", "gauss2", "ball2"))
    def test_quadrature_paths_match_finite_differences(self, gen, d):
        dt = 1e-4
        for t, r in ((1.5, 0.8), (3.0, 3.2)):
            x = (r,) + (0.0,) * (d - 1)
            fd = (mode_values(gen, t + dt, x, d)[0]
                  - mode_values(gen, t - dt, x, d)[0]) / (2 * dt)
            exact = mode_values(gen, t, x, d)[1]
            assert abs(fd - exact) <= 1e-6

    def test_linearity_in_amplitude(self):
        base = gen_gaussian(3)
        scaled = Generator(
            RadialSmearing.gaussian(SIGMA, (0, 0, 0), 3, amplitude=3.5),
            coupling_time=0.0,
        )
        x = (1.3, -0.4, 0.2)
        assert mode_values(scaled, 2.0, x, 3)[1] == pytest.approx(
            3.5 * mode_values(base, 2.0, x, 3)[1], rel=1e-12
        )
        shell = gen_shell(3, 1.1, 2.9)
        shell_scaled = Generator(
            RadialSmearing.hard_shell(1.1, 2.9, (0, 0, 0), 3, amplitude=3.5),
            coupling_time=0.0,
        )
        assert mode_values(shell_scaled, 2.0, x, 3)[1] == pytest.approx(
            3.5 * mode_values(shell, 2.0, x, 3)[1], rel=1e-10
        )


class TestPairingMatrix:
    def test_build_properties(self, table1_3):
        gens = [table1_3.alice, *table1_3.bobs]
        pm = pairing_matrix(gens, 3)
        assert pm.size == 4
        assert np.array_equal(pm.entries, pm.entries.conj().T)
        diag = np.diag(pm.entries)
        assert np.all(diag.real > 0.0)
        assert np.all(diag.imag == 0.0)
        assert pm.errors.max() <= 1e-9 * (1.0 + np.abs(pm.entries).max())

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            pairing(gen_gaussian(3), gen_gaussian(3), 2)


class TestSamplesAndEvaluators:
    def test_profile_evaluator_matches_scalar_paths(self):
        rng = np.random.default_rng(41)
        radii = rng.uniform(0.0, 6.0, size=8)
        for gen, d in ((gen_gaussian(3), 3), (gen_gaussian(2), 2)):
            ev = ModeProfileEvaluator(gen, 3.0, d, float(radii.max()))
            I, dI = ev.evaluate(radii)
            for r, iv, div in zip(radii, I, dI):
                quad = quadrature_mode(gen, 3.0, r, d)
                quad_dt = quadrature_mode(gen, 3.0, r, d, derivative=True)
                assert abs(iv - quad) <= 1e-9 * (1 + abs(iv))
                assert abs(div - quad_dt) <= 1e-8 * (1 + abs(div))

    def test_profile_evaluator_chunk_independent(self):
        gen = gen_gaussian(2)
        radii = np.linspace(0.0, 8.0, 101)
        ev = ModeProfileEvaluator(gen, 4.0, 2, 8.0)
        I_all, dI_all = ev.evaluate(radii)
        I_a, dI_a = ev.evaluate(radii[:40])
        I_b, dI_b = ev.evaluate(radii[40:])
        assert np.array_equal(np.concatenate([I_a, I_b]), I_all)
        assert np.array_equal(np.concatenate([dI_a, dI_b]), dI_all)

    def test_gaussian_d2_rule_is_bitwise_chunk_independent(self):
        # every block height, one row included, gives each radius the same bits
        radii = np.random.default_rng(47).uniform(0.0, 12.0, size=50)
        for gen in shockwave_scenario(2):
            ev = ModeProfileEvaluator(gen, 8.0, 2, float(radii.max()))
            whole = np.stack(ev.evaluate(radii))
            alone = np.stack([np.concatenate(ev.evaluate([r])) for r in radii], axis=1)
            chunks = np.concatenate([np.stack(ev.evaluate(part))
                                     for part in np.split(radii, (3, 31))], axis=1)
            assert np.array_equal(whole, alone) and np.array_equal(whole, chunks)

    @pytest.mark.parametrize("sigma", (1.0, 3.0, 10.0, 30.0))
    def test_gaussian_d2_rule_is_certified(self, sigma):
        # the node count comes from an n vs 2n comparison; the values must meet
        # tol * sum|w f| against a 1e-14 quadrature.  sum|w f| of I and dI/dt
        # is rho(0) / (4 pi) times int e^{-sigma^2 k^2 / 2} [k] dk
        gen, tol = gen_gaussian(2, sigma=sigma), 1e-10
        rho0 = radial_ft(gen.smearing, np.zeros(1))[0]
        scale = rho0 / (4.0 * math.pi) * np.array([math.sqrt(math.pi / 2.0) / sigma, sigma**-2])
        radii = np.linspace(0.0, 5.0, 26)
        for t in (0.0, 0.5, 2.0):
            got = np.stack(ModeProfileEvaluator(gen, t, 2, 5.0, tol=tol).evaluate(radii))
            ref = np.array([[gaussian_reference(2, r, t, (gen.smearing,), der)[0]
                             for r in radii] for der in (False, True)])
            assert np.all(np.abs(got - ref).max(axis=1) <= tol * scale), t

    @pytest.mark.parametrize("gen, d", ((gen_gaussian(3), 3), (gen_gaussian(2), 2),
                                        (gen_shell(3, 0.5, 1.25), 3), (gen_shell(2, 0.5, 1.25), 2)),
                             ids=("closed-form-d3", "fixed-nodes-d2", "hard-shell-d3",
                                  "hard-shell-d2"))
    def test_profile_evaluator_evaluates_each_distinct_radius_once(self, gen, d, monkeypatch):
        # radii off the shell's light-cone edges |t - t0| +- r = 0.75, 1.5, 2.5, 3.25
        import qicsim.field_kernel as fk

        distinct = np.array([0.0, 1e-4, 0.3, 1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0)])
        rng = np.random.default_rng(43)
        dx = rng.permutation(np.repeat(distinct, 3)).reshape(3, -1)
        ev = ModeProfileEvaluator(gen, 2.0, d, float(distinct.max()))
        calls = []
        quadrature = fk.oscillatory_integral

        def counted(*args, **kwargs):
            calls.append(1)
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(fk, "oscillatory_integral", counted)
        I, dI = ev.evaluate(dx)
        assert I.shape == dI.shape == dx.shape
        # only the d=2 hard shell reaches the quadrature; d=3 shells take the finite-part sum
        quadrature_shell = gen.smearing.kind == "hard_shell" and d == 2
        assert len(calls) == (2 * len(distinct) if quadrature_shell else 0)
        for r, iv, div in zip(dx.ravel(), I.ravel(), dI.ravel()):
            one, one_dt = ev.evaluate([r])
            assert iv == one[0] and div == one_dt[0]


def spread(dx_max, count=10**4):
    """``count`` distinct radii on [0, dx_max]; the default selects the
    Chebyshev table for every case below."""
    return np.linspace(0.0, dx_max, count)


class TestChebyshevInterpolation:
    """d=2 Gaussian mode functions interpolated in r from a Chebyshev table;
    10^4 distinct radii (`spread`) select that path."""

    @pytest.mark.parametrize("sigma", (0.2, 1.0, 3.0))
    def test_matches_the_direct_sums_within_tol(self, sigma):
        # dx_max up to 16 covers the shockwave generators' grids
        gen, tol = gen_gaussian(2, sigma=sigma), 1e-10
        radii = np.random.default_rng(61).uniform(0.0, 16.0, size=200)
        for t in (0.0, 2.0, 4.0, 8.0):
            for dx_max in (6.0 * math.sqrt(2.0), 16.0):
                r = np.concatenate([[0.0, dx_max], radii[radii < dx_max]])
                ev = ModeProfileEvaluator(gen, t, 2, spread(dx_max), tol=tol)
                assert ev._table is not None
                got = np.stack(ev.evaluate(r))
                ref = np.stack(ModeProfileEvaluator(gen, t, 2, dx_max, tol=tol).evaluate(r))
                scale = np.abs(ev._nodes[1].view(complex)).sum(axis=0)
                assert np.all(np.abs(got - ref).max(axis=1) <= tol * scale), (t, dx_max)

    def test_table_doubles_until_it_meets_tol(self):
        # at tol 1e-14 the 33-point table that starts at n = 17 misses, the
        # 65-point one is accepted
        gen, tol, dx_max = gen_gaussian(2, sigma=3.0), 1e-14, 6.0 * math.sqrt(2.0)
        ev = ModeProfileEvaluator(gen, 4.0, 2, spread(dx_max), tol=tol)
        k = ev._nodes[0]
        assert 9 < 0.5 * k[-1] * dx_max <= 17 and len(ev._table[0]) == 65
        assert len(ModeProfileEvaluator(gen, 4.0, 2, spread(dx_max))._table[0]) == 33
        r = np.random.default_rng(62).uniform(0.0, dx_max, size=100)
        got = np.stack(ev.evaluate(r))
        ref = np.stack(ModeProfileEvaluator(gen, 4.0, 2, dx_max, tol=tol).evaluate(r))
        scale = np.abs(ev._nodes[1].view(complex)).sum(axis=0)
        assert np.all(np.abs(got - ref).max(axis=1) <= tol * scale)

    def test_path_follows_the_cost_rule(self):
        # interpolate only where distinct K > (2n - 1)(K + distinct)
        gen, dx_max = gen_gaussian(2), 6.0 * math.sqrt(2.0)
        many = ModeProfileEvaluator(gen, 2.0, 2, spread(dx_max, 12000))
        K, m = len(many._nodes[0]), len(many._table[0])
        few = m * K // (K - m)  # the largest count the rule leaves direct
        assert ModeProfileEvaluator(gen, 2.0, 2, spread(dx_max, few))._table is None
        assert ModeProfileEvaluator(gen, 2.0, 2, spread(dx_max, few + 1))._table is not None
        assert ModeProfileEvaluator(gen, 2.0, 2, spread(dx_max, 100))._table is None
        # repeated radii count once
        assert ModeProfileEvaluator(gen, 2.0, 2, np.repeat(spread(dx_max, few), 2))._table is None

    def test_one_radius_or_zero_width_stays_direct(self):
        gen = gen_gaussian(2)
        assert ModeProfileEvaluator(gen, 2.0, 2, 8.0)._table is None
        assert ModeProfileEvaluator(gen, 2.0, 2, np.full((3, 4), 8.0))._table is None
        # many distinct radii, none above 0: no table
        ev = ModeProfileEvaluator(gen, 2.0, 2, -spread(8.0))
        assert ev._table is None
        assert np.array_equal(np.stack(ev.evaluate([0.0])),
                              np.stack(ModeProfileEvaluator(gen, 2.0, 2, 0.0).evaluate([0.0])))

    @pytest.mark.parametrize("r", (8.5, -0.5, math.nan))
    def test_radius_outside_the_table_is_typed_error(self, r):
        ev = ModeProfileEvaluator(gen_gaussian(2), 2.0, 2, spread(8.0))
        with pytest.raises(ConfigurationError, match=rf"^I at r={r}, t=2.0, .*outside \[0, 8.0\]"):
            ev.evaluate([1.0, r])

    def test_bitwise_chunk_independent(self):
        # every block height, one row included, gives each radius the same
        # bits; radii on table points (0, an inner one, dx_max) take its values
        radii = np.random.default_rng(47).uniform(0.0, 12.0, size=50)
        for gen in shockwave_scenario(2):
            ev = ModeProfileEvaluator(gen, 8.0, 2, spread(12.0))
            points, values = ev._table
            r = np.concatenate([radii, points[[0, 7, -1]]])
            whole = np.stack(ev.evaluate(r))
            assert np.array_equal(whole[:, -3:], values[[0, 7, -1]].T)
            alone = np.stack([np.concatenate(ev.evaluate([x])) for x in r], axis=1)
            chunks = np.concatenate([np.stack(ev.evaluate(part))
                                     for part in np.split(r, (3, 31))], axis=1)
            assert np.array_equal(whole, alone) and np.array_equal(whole, chunks)


def test_self_pairing_transforms_its_profile_once(monkeypatch):
    import qicsim.field_kernel as fk

    transformed, integrated = [], []
    ft, integral = fk.radial_ft, fk.oscillatory_integral

    def counted_ft(s, k):
        transformed.append(np.size(k))
        return ft(s, k)

    def counted_integral(integrand, *args, **kwargs):
        def counted(k):
            integrated.append(np.size(k))
            return integrand(k)
        return integral(counted, *args, **kwargs)

    monkeypatch.setattr(fk, "radial_ft", counted_ft)
    monkeypatch.setattr(fk, "oscillatory_integral", counted_integral)
    # d=2: d=3 shell pairings take the finite-part sum, not the integrand
    shell = gen_shell(2, 0.5, 1.25)
    twin = gen_shell(2, 0.5, 1.25)  # equal profile, another object
    other = gen_shell(2, 0.5, 1.5, t=0.3)
    for gi, gj, per_point in ((shell, shell, 1), (shell, twin, 1), (shell, other, 2)):
        transformed.clear()
        integrated.clear()
        pairing(gi, gj, 2)
        assert sum(transformed) == per_point * sum(integrated) > 0


def test_far_gaussian_pair_fails_fast():
    t0 = time.perf_counter()
    message = r"radial integral: \S+ segments > max_segments=131072"
    for gi, gj, d in ((gen_gaussian(3), gen_gaussian(3, center=(1e6, 0.0, 0.0)), 3),
                      (gen_gaussian(2), gen_gaussian(2, center=(1e6, 0.0)), 2),
                      (gen_gaussian(3), gen_shell(3, 0.5, 1.25, center=(1e6, 0.0, 0.0)), 3)):
        with pytest.raises(QuadratureError, match=message):
            pairing(gi, gj, d)
    assert time.perf_counter() - t0 < 1.0
    # the matrix names the pair, and keeps the stalled value and estimate
    far = [gen_gaussian(3), gen_gaussian(3, center=(1e6, 0.0, 0.0))]
    with pytest.raises(QuadratureError, match=r"pairing \(0, 1\): " + message) as info:
        pairing_matrix(far, 3)
    assert isinstance(info.value.__cause__, QuadratureError)
    assert (info.value.value, info.value.estimate) == (
        info.value.__cause__.value, info.value.__cause__.estimate)


def test_gaussian_rule_stops_on_nan_comparisons():
    # a NaN tol makes every n vs 2n comparison NaN; node doubling must stop
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError, match=r"mode function at t=2\.0, coupling_time=0\.0: "
                                               r"radial integral: 8 and 16 nodes per panel"):
        ModeProfileEvaluator(gen_gaussian(2), 2.0, 2, 1.0, tol=math.nan)
    with pytest.raises(QuadratureError, match=r"pairing \(0, 0\): radial integral"):
        pairing_matrix([gen_gaussian(3), gen_gaussian(3, center=(1.0, 0.0, 0.0))], 3, tol=math.nan)
    assert time.perf_counter() - t0 < 1.0


def higher_order_integral(monkeypatch, *args):
    """`radial_integral` with four more Hankel orders and twice the split point."""
    import qicsim.field_kernel as fk

    with monkeypatch.context() as m:
        m.setattr(fk, "HANKEL_ORDERS", fk.HANKEL_ORDERS + 4)
        m.setattr(fk, "HANKEL_Z0", 2.0 * fk.HANKEL_Z0)
        return radial_integral(*args)


def test_near_edge_hard_shell_mode_function_evaluates(monkeypatch):
    # r = sqrt(2.5) lies 0.019 inside the light-cone edge t - r_inner = 1.6, where
    # the dI/dt integrand's slowest frequency is 0.019
    gen, r = gen_shell(2, 0.5, 1.25), math.sqrt(2.5)
    I, dI = ModeProfileEvaluator(gen, 2.1, 2, r).evaluate([r])
    for value, derivative in ((I[0], False), (dI[0], True)):
        val, err = radial_integral(2, r, 2.1, (gen.smearing,), derivative)
        ref, ref_err = higher_order_integral(monkeypatch, 2, r, 2.1, (gen.smearing,), derivative)
        assert value == val and abs(val - ref) <= err + ref_err, derivative


@pytest.mark.parametrize("t", (2.1, 3.0))
def test_d2_shell_mode_functions_near_the_centre(monkeypatch, t):
    # the angular-average kernel (r k_split < HANKEL_Z0) and the expanded one agree
    # with a higher-order evaluation within both estimates
    gen = gen_shell(2, 0.5, 1.25)
    for r in (0.0, 1e-8, 1e-4, 0.05, 0.6):
        for derivative in (False, True):
            val, err = radial_integral(2, r, t, (gen.smearing,), derivative)
            ref, ref_err = higher_order_integral(monkeypatch, 2, r, t, (gen.smearing,), derivative)
            assert abs(val - ref) <= err + ref_err, (r, derivative)
            assert err <= 1e-10 * abs(val)


@pytest.mark.parametrize("r, quantity", ((0.0, "dI/dt"), (1e-6, "I"), (1e-3, "I")))
def test_light_cone_centre_error_names_radius_and_time(r, quantity):
    # at t = r_outer = 1.25 the centre lies on a light-cone edge, where dI/dt diverges
    gen = gen_shell(2, 0.5, 1.25)
    start = time.perf_counter()
    with pytest.raises(ConfigurationError,
                       match=rf"^{quantity} at r={r}, t=1\.25, coupling_time=0\.0: "):
        ModeProfileEvaluator(gen, 1.25, 2, r).evaluate([r])
    assert time.perf_counter() - start < 0.2


def test_light_cone_centre_neighbourhood_evaluates(monkeypatch):
    # from r = 0.01 on, the kernel is expanded at a larger split point
    gen = gen_shell(2, 0.5, 1.25)
    I, dI = ModeProfileEvaluator(gen, 1.25, 2, 0.3).evaluate([0.01, 0.05, 0.3])
    assert np.isfinite(I).all() and np.isfinite(dI).all()
    val, err = radial_integral(2, 0.05, 1.25, (gen.smearing,), True)
    ref, ref_err = higher_order_integral(monkeypatch, 2, 0.05, 1.25, (gen.smearing,), True)
    assert val == dI[1] and abs(val - ref) <= err + ref_err


def concentric_d2_pairing(a, b):
    """S_ij of two concentric d=2 shells (r_inner, r_outer) coupled at one time:
    pi sum +- r r' W(r, r') over their discs, with the Weber-Schafheitlin integral
    W(r, r') = int_0^inf J1(r k) J1(r' k) k^-2 dk = (m / 2) 2F1(1/2, -1/2; 2; m^2 / M^2),
    m, M = min, max(r, r').  Returns the value and the sum of |parts|."""
    parts = []
    for r, s in ((a[1], 1.0), (a[0], -1.0)):
        for q, sq in ((b[1], 1.0), (b[0], -1.0)):
            if r > 0.0 and q > 0.0:
                lo, hi = min(r, q), max(r, q)
                parts.append(math.pi * s * sq * r * q * 0.5 * lo * hyp2f1(0.5, -0.5, 2.0, (lo / hi) ** 2))
    return math.fsum(parts), sum(map(abs, parts))


def test_concentric_d2_pairings_match_closed_form():
    # the last three are receivers of the capacity workload
    shells = [(0.0, 1.0), (0.5, 1.25), (1.565244334014157, 3.1599706199170368),
              (3.359970619917037, 3.998897814866815), (4.421447621373284, 5.5197406078438025)]
    for i, a in enumerate(shells):
        for b in shells[i:]:
            val, err = pairing_detail(gen_shell(2, *a, t=0.7), gen_shell(2, *b, t=0.7), 2)
            exact, mag = concentric_d2_pairing(a, b)
            assert abs(val - exact) <= err + 8 * np.finfo(float).eps * mag, (a, b, val, exact)



def seeded_d2_shells(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [gen_shell(2, float(r), float(r + rng.uniform(0.3, 1.5)),
                      tuple(rng.uniform(-2.0, 2.0, 2)), float(rng.uniform(-1.0, 1.0)))
            for r in rng.choice([0.0, 0.4, 0.9], size=n)]


def hexed(x):
    """Nested tuples of numbers as their float.hex strings."""
    if isinstance(x, tuple):
        return tuple(map(hexed, x))
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def test_batched_d2_tails_equal_one_pair_tails():
    # the last shell's inner radius is below SMALL_RADIUS times its outer one,
    # so it enters its pairs as an angular average, and each of their tails
    # as two term sets (the coarser one gives the estimate)
    gens = seeded_d2_shells(31, 4) + [gen_shell(2, 1e-4, 0.8, center=(0.2, 0.0))]
    pairs = [(gi, gj) for i, gi in enumerate(gens) for gj in gens[i:]]
    values = pairings(pairs, 2, [f"pair {n}" for n in range(len(pairs))])
    coarse = 0
    for (gi, gj), value in zip(pairs, values):
        plan = _tail_plan(2, *_pair_geometry(gi, gj), (gi.smearing, gj.smearing))
        coarse += len(plan[0]) == 2
        assert hexed(value) == hexed(pairing_detail(gi, gj, 2))
    assert coarse >= 1
    # pairs that take no tail: a Gaussian factor, and d=3
    for pair, d in (((gens[0], gen_gaussian(2)), 2), ((gen_shell(3, 0.5, 1.25),) * 2, 3)):
        assert hexed(pairings([pair], d, ["one"])[0]) == hexed(pairing_detail(*pair, d))


def test_d2_shell_pairing_matrix_equals_pair_by_pair():
    gens = seeded_d2_shells(32, 4)
    pm = pairing_matrix(gens, 2)
    for i, gi in enumerate(gens):
        for j in range(i, len(gens)):
            val, err = pairing_detail(gi, gens[j], 2)
            assert hexed((pm.entries[i, j], pm.errors[i, j])) == hexed((val, err))
            if j != i:
                assert hexed((pm.entries[j, i], pm.errors[j, i])) == hexed((val.conjugate(), err))


def test_tail_planning_error_in_the_batch_names_its_pair():
    # shell 2 is shell 0 moved by 1e-4: their kernel would need the expansion
    # of a centre on a light-cone edge, refused while the tails are planned
    shell, moved = gen_shell(2, 0.5, 1.25), gen_shell(2, 0.5, 1.25, center=(1e-4, 0.0))
    with pytest.raises(ConfigurationError, match=r"^pairing \(0, 2\): too close to a centre"):
        pairing_matrix([shell, seeded_d2_shells(33, 1)[0], moved], 2)


@pytest.mark.parametrize("d", (2, 3))
def test_overflowing_distance_is_typed_error(d):
    far = (1e308,) + (0.0,) * (d - 1)
    near = (-1e308,) + (0.0,) * (d - 1)
    for other in (gen_gaussian(d, near), gen_shell(d, 0.5, 1.25, near)):
        with pytest.raises(ConfigurationError, match="distance between centres .* overflows"):
            pairing(gen_gaussian(d, far), other, d)
    with pytest.raises(ConfigurationError, match=r"^pairing \(0, 1\): the distance"):
        pairing_matrix([gen_gaussian(d, far), gen_gaussian(d, near)], d)


@pytest.mark.parametrize("d", (2, 3))
def test_overflowing_time_difference_is_typed_error(d):
    # coupling times of -+1e308 are finite; their difference is not
    early, late = gen_shell(d, 0.5, 1.25, t=-1e308), gen_shell(d, 0.5, 1.25, t=1e308)
    with pytest.raises(ConfigurationError, match=r"^pairing \(0, 1\): the time difference overflows"):
        pairing_matrix([early, late], d)
    with pytest.raises(ConfigurationError, match="the time difference overflows"):
        pairing(gen_gaussian(d, t=-1e308), gen_gaussian(d, t=1e308), d)
    # the evaluator refuses the time at construction, for every profile kind
    for gen in (early, gen_gaussian(d, t=-1e308)):
        with pytest.raises(ConfigurationError, match=r"^mode function at t=1e\+308, "
                           r"coupling_time=-1e\+308: the time difference overflows$"):
            ModeProfileEvaluator(gen, 1e308, d, 0.5)


def test_far_centres_fall_back_to_hypot():
    # |c_i - c_j|^2 = 1e400 overflows in the norm; the distance 1e200 does not
    near, far = gen_shell(3, 0.5, 1.25), gen_shell(3, 0.5, 1.25, center=(1e200, 0.0, 0.0))
    assert _pair_geometry(near, far) == (1e200, 0.0)
    assert spacelike_separated(near, far)


# --------------------------------------------------------------------------
# d=3 hard shells: exact finite-part sums
# --------------------------------------------------------------------------

def shell_pairs(table1_3):
    """The table1 d=3 pairs (keyed as in the `damped_pairings` fixture) and
    20 seeded off-center shell/ball pairs (keyed None)."""
    sc = table1_3
    pairs = []
    for i, bob in enumerate(sc.bobs):
        pairs += [(bob, sc.bobs[j], (3, i, j)) for j in range(i, len(sc.bobs))]
        pairs.append((bob, sc.alice, (3, i, "alice")))
    rng = np.random.default_rng(61)

    def shell():  # compact geometry: the damped oracle's cost grows with the frequencies
        r = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 0.8))
        return gen_shell(3, r, r + float(rng.uniform(0.3, 0.8)),
                         tuple(rng.uniform(-0.75, 0.75, size=3)), float(rng.uniform(-0.75, 0.75)))

    return pairs + [(shell(), shell(), None) for _ in range(20)]


def quadrature_pairing(gi, gj):
    """S_ij by the oscillatory quadrature: `radial_integral` with no scale."""
    import qicsim.field_kernel as fk

    dx, tau = fk._pair_geometry(gi, gj)
    return radial_integral(3, dx, tau, (gi.smearing, gj.smearing))[0]


# The d=3 term builder and finite-part sum as scalar tuple lists, kept verbatim
# from before the terms were built as arrays: the bitwise reference of
# `_expansion` at k_split = inf and `_finite_part`.
_PSI = [-0.5772156649015329 + sum(1.0 / j for j in range(1, n + 1)) for n in range(8)]
_I_POW = (1.0, 1j, -1.0, -1j)


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


class TestShellFiniteParts:
    def test_pairings_match_quadrature_and_damped_oracle(self, table1_3, damped_pairings):
        for gi, gj, key in shell_pairs(table1_3):
            val, err = pairing_detail(gi, gj, 3)
            scale = math.sqrt(pairing(gi, gi, 3).real * pairing(gj, gj, 3).real)
            damped, damped_err = damped_pairings[key] if key else pairing_damped(gi, gj, 3)
            assert abs(val - quadrature_pairing(gi, gj)) <= 1e-9 * scale, (key, val)
            # the damped oracle misses by ~1.15x its own estimate, 1.4e-9 scale
            # on (bob 0, alice); twice the estimate covers its own error
            assert abs(val - damped) <= 1e-9 * scale + 2.0 * damped_err, (key, val, damped)
            assert err <= 1e-12 * scale

    def test_far_pair_falls_back_to_quadrature(self, monkeypatch):
        # the terms cancel like dx^4: at dx = 1000 the rounding bound is far
        # above tol sqrt(S_ii S_jj), so the quadrature serves the pair
        import qicsim.field_kernel as fk

        calls = []
        integral = fk.oscillatory_integral

        def counted(*args, **kwargs):
            calls.append(1)
            return integral(*args, **kwargs)

        monkeypatch.setattr(fk, "oscillatory_integral", counted)
        ball = gen_shell(3, 0.0, 1.0)
        near = gen_shell(3, 1.1, 2.9, (10.0, 0.0, 0.0), 0.5)
        far = gen_shell(3, 1.1, 2.9, (1000.0, 0.0, 0.0), 0.5)
        pairing_detail(ball, near, 3)
        assert calls == []
        val, err = pairing_detail(ball, far, 3)
        assert calls == [1]
        assert math.isfinite(val.real) and err <= 1e-10 * abs(val)

    def test_far_pair_estimate_bounds_its_error(self):
        # the terms cancel like dx^4 at dx = 50, so the fallback serves this pair; the
        # reference is the pair's finite-part sum, taken once at 60 digits with mpmath
        ball = gen_shell(3, 0.0, 1.0)
        far = gen_shell(3, 1.1, 2.9, (50.0, 0.0, 0.0))
        exact = 0.0041024278320904417721575327010462825390867288014282
        val, err = pairing_detail(ball, far, 3)
        assert abs(val - exact) <= err <= 1e-10 * exact

    def test_divergent_parts_cancel(self, table1_3):
        # the integrand is regular at k = 0, so every k^-q coefficient of the
        # term sum's small-k expansion, sum c (i omega)^(p-q) / (p-q)!, vanishes;
        # q = 1 is the pole sum of the logarithms
        import qicsim.field_kernel as fk

        for gi, gj, key in shell_pairs(table1_3):
            dx, tau = fk._pair_geometry(gi, gj)
            c, p, omega, _ = fk._expansion(3, dx, tau, (gi.smearing, gj.smearing), False,
                                           math.inf, 0)
            terms = list(zip(c.tolist(), p.astype(int).tolist(), omega.tolist()))
            for q in range(1, max(p for _, p, _ in terms) + 1):
                parts = [c * (1j * w) ** (p - q) / math.factorial(p - q)
                         for c, p, w in terms if p >= q]
                total = complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))
                assert abs(total) <= 1e-13 * sum(map(abs, parts)), (key, q)

    def test_finite_parts_match_the_scalar_reference(self, table1_3):
        # value, sum|terms| and divergence flag are equal to the tuple-list reference
        # on the pairs, their self-pairings and the r = 0 mode-function scales
        import qicsim.field_kernel as fk

        cases = []
        for gi, gj, _ in shell_pairs(table1_3):
            dx, tau = fk._pair_geometry(gi, gj)
            cases.append((dx, tau, (gi.smearing, gj.smearing), False))
            cases += [(0.0, 0.0, (g.smearing, g.smearing), False) for g in (gi, gj)]
        for s in (gen_shell(3, 0.5, 1.25).smearing, table1_3.alice.smearing):
            cases += [(0.0, t, (s,), der) for t in (1.25, 2.1) for der in (False, True)]
        for dx, tau, profiles, der in cases:
            got = fk._finite_part(fk._expansion(3, dx, tau, profiles, der, math.inf, 0))
            assert got == _finite_part(_shell_terms(dx, tau, profiles, der)), (dx, tau, der)

    def test_mode_functions_match_quadrature_and_pass_the_stalls(self, monkeypatch):
        import qicsim.field_kernel as fk

        gen = gen_shell(3, 0.5, 1.25)
        # off the light-cone edges 2.1 -+ 0.5, 2.1 -+ 1.25
        for r in (0.0, 0.3, 1.0, 1.2, 2.0, 2.5, 3.0, 4.0):
            I, dI = mode_values(gen, 2.1, (r, 0.0, 0.0), 3)
            assert abs(I - quadrature_mode(gen, 2.1, r, 3)) <= 1e-10
            assert abs(dI - quadrature_mode(gen, 2.1, r, 3, True)) <= 1e-10
        # radii where the quadrature stalls at its segment cap
        monkeypatch.setattr(fk, "oscillatory_integral", None)
        stalls = [math.sqrt(2.5), 1.59, 1.599, 1.6 - 1e-6, 3.36]
        I, dI = ModeProfileEvaluator(gen, 2.1, 3, 3.36).evaluate(stalls)
        assert np.isfinite(I).all() and np.isfinite(dI).all()

    @pytest.mark.parametrize("r", (1.6, 3.35))
    def test_light_cone_edge_divergence_is_typed(self, r):
        # at t = 2.1 the edges t - r_inner = 1.6 and t + r_outer = 3.35 carry
        # a log singularity of dI/dt
        gen = gen_shell(3, 0.5, 1.25)
        with pytest.raises(ConfigurationError, match=rf"dI/dt at r={r}, t=2\.1, coupling_time=0\.0"):
            ModeProfileEvaluator(gen, 2.1, 3, r).evaluate([r])

    @pytest.mark.parametrize("r", (1e-8, 1e-6))
    def test_near_divergent_centre_is_prompt_typed_error(self, r):
        # at t = r_outer = 1.25 the centre lies on a light-cone edge; close to it
        # the terms cancel like 1/r and the quadrature would stall
        gen = gen_shell(3, 0.5, 1.25)
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match=rf"I at r={r}, t=1\.25, coupling_time=0\.0"):
            ModeProfileEvaluator(gen, 1.25, 3, r).evaluate([r])
        assert time.perf_counter() - start < 0.2
        I, dI = ModeProfileEvaluator(gen, 1.25, 3, 1e-4).evaluate([1e-4])
        assert np.isfinite(I).all() and np.isfinite(dI).all()


# --------------------------------------------------------------------------
# properties of `radial_integral` through both callers
# --------------------------------------------------------------------------

@st.composite
def compact_generators(draw, d, kind):
    """A generator of width <= 1.5 within 1 of the origin, firing at |t| <= 1."""
    center = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(d))
    t, scale = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 1.5))
    if kind == "gaussian":
        return gen_gaussian(d, center, t, sigma=scale)
    return gen_shell(d, draw(st.floats(0.0, 0.9)) * scale, scale, center, t)


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("kinds", (("gaussian", "gaussian"), ("gaussian", "hard_shell"),
                                   ("hard_shell", "hard_shell")), ids="-".join)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pairing_is_finite_with_estimate_or_typed_error(d, kinds, data):
    gi, gj = (data.draw(compact_generators(d, kind)) for kind in kinds)
    try:
        val, err = pairing_detail(gi, gj, d)
    except (QuadratureError, ConfigurationError):
        return
    assert math.isfinite(val.real) and math.isfinite(val.imag)
    assert math.isfinite(err) and err >= 0.0


@pytest.mark.parametrize("d, kind", ((2, "gaussian"), (3, "gaussian"), (3, "hard_shell")))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mode_functions_are_finite_or_typed_error(d, kind, data):
    gen = data.draw(compact_generators(d, kind))
    t = data.draw(st.floats(-3.0, 3.0))
    radii = data.draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8))
    try:
        I, dI = ModeProfileEvaluator(gen, t, d, max(radii)).evaluate(radii)
    except (QuadratureError, ConfigurationError):
        return
    assert np.isfinite(I).all() and np.isfinite(dI).all()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_d2_hard_shell_mode_functions_are_finite_with_estimate_or_typed_error(data):
    gen = data.draw(compact_generators(2, "hard_shell"))
    t = data.draw(st.floats(-3.0, 3.0))
    radii = data.draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8))
    try:
        I, dI = ModeProfileEvaluator(gen, t, 2, max(radii)).evaluate(radii)
        results = [radial_integral(2, r, t - gen.coupling_time, (gen.smearing,), der)
                   for r in radii for der in (False, True)]
    except (QuadratureError, ConfigurationError):
        return
    assert np.isfinite(I).all() and np.isfinite(dI).all()
    assert [v for v, _ in results] == [x for pair in zip(I, dI) for x in pair]
    assert all(math.isfinite(err) and err >= 0.0 for _, err in results)
