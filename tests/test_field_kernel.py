import math
import time

import numpy as np
import pytest

from qicsim.errors import ConfigurationError, QuadratureError
from qicsim.field_kernel import (
    ModeProfileEvaluator,
    _gaussian_mode_closed,
    mode_function_by_quadrature,
    pairing,
    pairing_damped,
    pairing_detail,
    pairing_matrix,
    spacelike_separated,
)
from qicsim.qic import Generator
from qicsim.smearing import RadialSmearing

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


def random_generator(rng, d):
    center = tuple(rng.uniform(-3, 3, size=d))
    t = float(rng.uniform(-2, 2))
    if rng.random() < 0.5:
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
            quad, _ = mode_function_by_quadrature(g, t, float(np.linalg.norm(x)), 3)
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
        assert pm.max_error() == pm.errors.max()

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
                quad, _ = mode_function_by_quadrature(gen, 3.0, r, d)
                quad_dt, _ = mode_function_by_quadrature(gen, 3.0, r, d, derivative=True)
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

    @pytest.mark.parametrize("gen, d", ((gen_gaussian(3), 3), (gen_gaussian(2), 2),
                                        (gen_shell(3, 0.5, 1.25), 3)),
                             ids=("closed-form-d3", "fixed-nodes-d2", "hard-shell-d3"))
    def test_profile_evaluator_evaluates_each_distinct_radius_once(self, gen, d, monkeypatch):
        # radii off the shell's light-cone edges |t - t0| +- r = 0.75, 1.5, 2.5, 3.25
        import qicsim.field_kernel as fk

        distinct = np.array([0.0, 1e-4, 0.3, 1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0)])
        rng = np.random.default_rng(43)
        dx = rng.permutation(np.repeat(distinct, 3)).reshape(3, -1)
        ev = ModeProfileEvaluator(gen, 2.0, d, float(distinct.max()))
        calls = []
        quadrature = fk.mode_function_by_quadrature

        def counted(*args, **kwargs):
            calls.append(args[2])
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(fk, "mode_function_by_quadrature", counted)
        I, dI = ev.evaluate(dx)
        assert I.shape == dI.shape == dx.shape
        assert len(calls) == (2 * len(distinct) if gen.smearing.kind == "hard_shell" else 0)
        for r, iv, div in zip(dx.ravel(), I.ravel(), dI.ravel()):
            one, one_dt = ev.evaluate([r])
            assert iv == one[0] and div == one_dt[0]


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
    shell = gen_shell(3, 0.5, 1.25)
    twin = gen_shell(3, 0.5, 1.25)  # equal profile, another object
    other = gen_shell(3, 0.5, 1.5, t=0.3)
    for gi, gj, per_point in ((shell, shell, 1), (shell, twin, 1), (shell, other, 2)):
        transformed.clear()
        integrated.clear()
        pairing(gi, gj, 3)
        assert sum(transformed) == per_point * sum(integrated) > 0


def test_far_gaussian_pair_fails_fast():
    t0 = time.perf_counter()
    message = r"Gaussian integral: \d+ segments > max_segments=131072"
    with pytest.raises(QuadratureError, match=message):
        pairing(gen_gaussian(3), gen_gaussian(3, center=(1e6, 0.0, 0.0)), 3)
    assert time.perf_counter() - t0 < 1.0
