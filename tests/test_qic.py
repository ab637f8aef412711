import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qicsim.errors import ConfigurationError, NumericConsistencyError, QuadratureError
from qicsim.field_kernel import PairingMatrix, pairing, pairing_matrix
from qicsim.qic import (
    MAX_GRID_VALUES,
    Generator,
    GridAxis,
    GridSpec,
    build_qic,
    mode_gram,
    weighting_grid,
)
from qicsim.scenarios import shockwave_scenario, single_qic_scenario
from qicsim.smearing import RadialSmearing

from oracles import apply_f, real_forms, real_mode_recursion

SIGMA = 0.2


def random_generators(seed, d, n):
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(n):
        center = tuple(rng.uniform(-3, 3, size=d))
        t = float(rng.uniform(-2, 2))
        if rng.random() < 0.5:
            s = RadialSmearing.gaussian(float(rng.uniform(0.15, 0.6)), center, d)
        else:
            r = float(rng.uniform(0.0, 1.5))
            s = RadialSmearing.hard_shell(r, r + float(rng.uniform(0.3, 2.0)), center, d)
        gens.append(Generator(smearing=s, coupling_time=t))
    return gens


def complex_of(u):
    """The complex coefficient vector x - i y of the real 2k vector (x, y)."""
    k = len(u) // 2
    return u[:k] - 1j * u[k:]


class TestExtendedGram:
    """The real 2k forms of the reference recursion in `oracles`."""

    def test_single_generator_commutation(self):
        gen = single_qic_scenario(3)[0]
        pm = pairing_matrix([gen], 3)
        _, W = real_forms(pm.entries)
        e0 = np.array([1.0, 0.0])
        # (1/i) <[O, f(O)]> = 2 <O^2>
        assert e0 @ W @ apply_f(e0) == pytest.approx(2.0 * pm.entries[0, 0].real, rel=1e-12)

    def test_f_is_involution_up_to_sign(self):
        # and on complex coefficient vectors f is multiplication by -i
        k = len(shockwave_scenario(3))
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.normal(size=2 * k)
            assert np.array_equal(apply_f(apply_f(u)), -u)
            assert np.array_equal(complex_of(apply_f(u)), -1j * complex_of(u))

    def test_f_preserves_commutators(self):
        _, W = real_forms(pairing_matrix(shockwave_scenario(2), 2).entries)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u, v = rng.normal(size=(2, len(W)))
            assert apply_f(u) @ W @ apply_f(v) == pytest.approx(u @ W @ v, rel=1e-12, abs=1e-12)

    def test_metric_is_half_f_of_symplectic(self):
        M, W = real_forms(pairing_matrix(shockwave_scenario(3), 3).entries)
        F = np.array([apply_f(e) for e in np.eye(len(M))]).T  # the matrix of f
        assert np.allclose(M, 0.5 * F @ W, atol=1e-15)

    def test_antisymmetry_from_independent_orientations(self):
        # both orientations integrated separately; the two commutator
        # functionals must mirror each other entrywise
        gens = random_generators(11, 3, 4)
        worst_re = 0.0
        worst_im = 0.0
        for i in range(4):
            for j in range(4):
                s_ij = pairing(gens[i], gens[j], 3, tol=1e-11)
                s_ji = pairing(gens[j], gens[i], 3, tol=1e-11)
                worst_re = max(worst_re, abs(s_ij.real - s_ji.real))
                worst_im = max(worst_im, abs(s_ij.imag + s_ji.imag))
        assert worst_re <= 1e-10
        assert worst_im <= 1e-10


class TestBuildQic:
    def test_single_mode_normalization_3d(self):
        modes = build_qic(single_qic_scenario(3), 3)
        assert modes.n_modes == 1
        assert modes.alphas[0] == pytest.approx(math.sqrt(2 * math.pi) * SIGMA**2, rel=1e-10)

    def test_single_mode_normalization_2d(self):
        modes = build_qic(single_qic_scenario(2), 2)
        assert modes.alphas[0] == pytest.approx(math.pi**0.75 * SIGMA**1.5, rel=1e-10)

    def test_identical_generators_skip_second(self):
        gen = single_qic_scenario(3)[0]
        modes = build_qic([gen, gen], 3)
        assert modes.n_modes == 1
        assert modes.skipped == (1,)
        # exact linear dependence forces beta = alpha_1, gamma = 0
        assert modes.overlaps[1, 0].real == pytest.approx(modes.alphas[0], rel=1e-12)
        assert modes.overlaps[1, 0].imag == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("d", (3, 2))
    def test_shockwave_standard_form(self, d):
        modes = build_qic(shockwave_scenario(d), d)
        assert modes.n_modes == 3
        assert modes.skipped == ()
        G = mode_gram(modes)
        assert np.abs(G - np.eye(modes.n_modes)).max() <= 1e-8
        # entry by entry, Re G = 2 M and Im G = -W on the modes' real 2k vectors
        M, W = real_forms(modes.pairing.entries)
        q = np.hstack([modes.coeffs.real, -modes.coeffs.imag])
        for a, u in enumerate(q):
            for b, v in enumerate(q):
                assert G[a, b].real == pytest.approx(2.0 * u @ M @ v, abs=1e-14)
                assert G[a, b].imag == pytest.approx(-(u @ W @ v), abs=1e-14)

    def test_random_generator_sets_standard_form(self):
        for seed, d in ((5, 3), (6, 2)):
            gens = random_generators(seed, d, 4)
            modes = build_qic(gens, d)
            assert np.abs(mode_gram(modes) - np.eye(modes.n_modes)).max() <= 1e-8

    def test_rescaling_leaves_modes_invariant(self):
        # scaling O_i by c rescales coefficients by 1/c against the scaled
        # basis, so the form <c_m, probe> against a fixed probe is unchanged
        gens = shockwave_scenario(3)
        pm = pairing_matrix(gens, 3)
        modes = build_qic(gens, 3, pairing=pm)
        scales = np.array([2.0, 0.5, 3.0])
        D = np.diag(scales)
        pm_scaled = PairingMatrix(
            entries=D @ pm.entries @ D, errors=D @ pm.errors @ D, dimension=3
        )
        modes_scaled = build_qic(gens, 3, pairing=pm_scaled)
        probe = complex_of(np.array([0.3, -0.7, 1.1, 0.2, 0.5, -0.4]))
        # the probe written over the scaled basis has components w / c
        probe_scaled = probe / scales

        def form(modes, m, z):  # <c_m, z>: Q_m's and P_m's pairings with z
            return np.vdot(modes.coeffs[m], 2.0 * modes.pairing.entries.conj() @ z)

        for m in range(3):
            a, b = form(modes, m, probe), form(modes_scaled, m, probe_scaled)
            assert a.real == pytest.approx(b.real, rel=1e-10, abs=1e-12)
            assert a.imag == pytest.approx(b.imag, rel=1e-10, abs=1e-12)

    def test_recursion_is_lower_triangular(self):
        gens = shockwave_scenario(3)
        short = build_qic(gens[:2], 3)
        full = build_qic(gens, 3)
        for m in range(short.n_modes):
            assert np.array_equal(short.coeffs[m], full.coeffs[m][:2])
            assert full.coeffs[m][2] == 0.0

    def test_complex_modes_match_real_recursion(self):
        # Gram-Schmidt in k complex dimensions against the recursion over the
        # real 2k basis: c_m = x - i y for Q_m = (x, y), -i c_m for P_m = f(Q_m),
        # overlaps = beta - i gamma
        gen = single_qic_scenario(3)[0]
        cases = [(shockwave_scenario(d), d) for d in (3, 2)]
        cases += [(random_generators(seed, d, 4), d) for seed, d in ((5, 3), (6, 2), (11, 3))]
        cases += [(shockwave_scenario(3) + [gen, shockwave_scenario(3)[1]], 3)]  # a repeat
        for gens, d in cases:
            modes = build_qic(gens, d)
            ref = real_mode_recursion(modes.pairing.entries)
            assert modes.skipped == ref["skipped"] and modes.n_modes == len(ref["q"])
            scale = np.abs(ref["q"]).max()
            for vecs, coeffs in ((ref["q"], modes.coeffs), (ref["p"], -1j * modes.coeffs)):
                assert np.abs(coeffs - [complex_of(v) for v in vecs]).max() <= 1e-14 * scale
            scale = np.sqrt(2.0 * np.diag(modes.pairing.entries).real.max())
            assert np.abs(modes.overlaps - (ref["betas"] - 1j * ref["gammas"])).max() <= 1e-14 * scale
            assert modes.alphas == pytest.approx(ref["alphas"], rel=1e-14)

    def test_inconsistent_pairing_raises(self):
        gen = single_qic_scenario(3)[0]
        pm = pairing_matrix([gen, gen], 3)
        bad = pm.entries.copy()
        bad[0, 1] *= 1.0 + 1e-6
        bad[1, 0] = np.conjugate(bad[0, 1])
        with pytest.raises(NumericConsistencyError):
            build_qic([gen, gen], 3, pairing=PairingMatrix(bad, pm.errors, 3))

    def test_empty_generators_rejected(self):
        with pytest.raises(ConfigurationError):
            build_qic([], 3)

    def test_pairing_of_another_size_rejected(self):
        gen = single_qic_scenario(3)[0]
        with pytest.raises(ConfigurationError, match="pairing matrix size does not match generator count"):
            build_qic([gen], 3, pairing=pairing_matrix([gen, gen], 3))


def line_spec(d, lo=-6.0, hi=6.0, step=0.05):
    return GridSpec(axes=(GridAxis(lo, hi, step),) + (0.0,) * (d - 1))


class TestGridSpec:
    def test_points_shape(self):
        spec = GridSpec(axes=(GridAxis(0, 1, 0.5), GridAxis(0, 1, 1.0), 0.0))
        assert spec.shape == (3, 2)
        assert GridSpec(axes=(GridAxis(0.0, 1e9, 1.0), 0.0)).shape == (10**9 + 1,)  # counted, not built
        pts = spec.points()
        assert pts.shape == (6, 3)
        assert np.all(pts[:, 2] == 0.0)

    def test_no_varying_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(axes=(0.0, 0.0))

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            GridAxis(5.0, 4.0, 0.1)
        with pytest.raises(ConfigurationError):
            GridAxis(0.0, 1.0, -0.1)
        with pytest.raises(ConfigurationError, match="too many points"):
            GridAxis(-1e308, 1e308, 1.0)


class TestWeightingGrid:
    def test_momentum_components_vanish_at_coupling_time(self):
        modes = build_qic(single_qic_scenario(3), 3)
        fg = weighting_grid(modes, 0, 0.0, line_spec(3))
        assert np.abs(fg.q_momentum).max() == 0.0
        assert np.abs(fg.p_field).max() == 0.0
        assert np.abs(fg.q_field).max() > 0.0

    def test_field_weight_peak_scale(self):
        # alpha-normalization fixes sigma^2 F(0, center) = 1/sqrt(2 pi)
        modes = build_qic(single_qic_scenario(3), 3)
        spec = GridSpec(axes=(GridAxis(0.0, 0.1, 0.1), 0.0, 0.0))
        fg = weighting_grid(modes, 0, 0.0, spec)
        assert SIGMA**2 * fg.q_field[0][0] == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-10
        )

    @pytest.mark.parametrize("t", (2.0, 4.0))
    def test_lightcone_ridge(self, t):
        modes = build_qic(single_qic_scenario(3), 3)
        spec = line_spec(3)
        fg = weighting_grid(modes, 0, t, spec)
        xs = spec.axes[0].values()
        peak = abs(xs[np.abs(fg.q_momentum[0]).argmax()])
        assert abs(peak - t) <= 2 * SIGMA

    def test_time_derivative_relation(self):
        # field components are minus the time derivative of momentum ones
        modes = build_qic(single_qic_scenario(3), 3)
        spec = line_spec(3, -5, 5, 0.25)
        dt = 1e-4
        mid = weighting_grid(modes, 0, 3.0, spec)
        lo = weighting_grid(modes, 0, 3.0 - dt, spec)
        hi = weighting_grid(modes, 0, 3.0 + dt, spec)
        fd_f2 = (hi.q_momentum[0] - lo.q_momentum[0]) / (2 * dt)
        fd_g2 = (hi.p_momentum[0] - lo.p_momentum[0]) / (2 * dt)
        scale = np.abs(mid.q_field[0]).max()
        assert np.abs(mid.q_field[0] + fd_f2).max() <= 1e-5 * scale
        assert np.abs(mid.p_field[0] + fd_g2).max() <= 1e-5 * scale

    def test_huygens_tail_contrast(self):
        modes3 = build_qic(single_qic_scenario(3), 3)
        modes2 = build_qic(single_qic_scenario(2), 2)
        spec3 = line_spec(3, -3, 3, 0.05)
        spec2 = line_spec(2, -3, 3, 0.05)
        tail3 = np.abs(weighting_grid(modes3, 0, 4.0, spec3).q_momentum[0]).mean()
        tail2 = np.abs(weighting_grid(modes2, 0, 4.0, spec2).q_momentum[0]).mean()
        assert tail2 > tail3

    def test_threads_do_not_change_bytes(self):
        # emitters at x = 6.5, 8, 9.5 on y = 0: on lattice points of the first
        # grid (shared radii), between those of the second and of the small
        # third (153 points); the hard shell 0.5-1.25 at (0.5, -0.25) sees its
        # 6 grid points at distances 0, 1 and sqrt 2, off the light-cone
        # edges 0.75, 1.5, 2.5, 3.25, one point per chunk at threads=2
        shockwave = build_qic(shockwave_scenario(2), 2)
        shell = Generator(RadialSmearing.hard_shell(0.5, 1.25, (0.5, -0.25), 2), 0.0)
        cases = [
            (shockwave, 8.0, GridSpec(axes=(GridAxis(x0, x0 + 16.0, step), GridAxis(-4.0, 4.0, step))))
            for x0, step in ((0.0, 0.25), (0.1, 0.25), (0.1, 1.0))
        ]
        cases.append((build_qic([shell], 2), 2.0,
                      GridSpec(axes=(GridAxis(-0.5, 1.5, 1.0), GridAxis(-1.25, -0.25, 1.0)))))
        for modes, t, spec in cases:
            one = weighting_grid(modes, None, t, spec, threads=1)
            two = weighting_grid(modes, None, t, spec, threads=2)
            for name in ("q_field", "q_momentum", "p_field", "p_momentum"):
                assert np.array_equal(getattr(one, name), getattr(two, name))

    def test_points_with_equal_radii_get_equal_bits(self):
        # three d=3 Gaussians on the x axis, off the grid's centre: the
        # lattice points fall into classes of one radius to every emitter,
        # and each class's weight rows must match bit for bit
        gens = [Generator(RadialSmearing.gaussian(0.2, (x, 0.0, 0.0), 3), coupling_time=t0)
                for x, t0 in ((1.25, 0.0), (2.5, 1.0), (3.75, 2.0))]
        spec = GridSpec(axes=(GridAxis(-3.0, 8.0, 0.05), GridAxis(-4.0, 4.0, 0.05), 0.0))
        fg = weighting_grid(build_qic(gens, 3), None, 4.0, spec)
        pts = spec.points()
        radii = np.stack([np.linalg.norm(pts - g.smearing.center, axis=1) for g in gens], axis=1)
        _, first, cls = np.unique(radii, axis=0, return_index=True, return_inverse=True)
        rows = np.concatenate([getattr(fg, name).reshape(fg.q_field.shape[0], -1).T
                               for name in ("q_field", "q_momentum", "p_field", "p_momentum")], axis=1)
        bits = np.ascontiguousarray(rows).view(np.uint64)
        assert len(first) < len(pts)  # classes of several points exist
        assert np.array_equal(bits, bits[first[cls.ravel()]])

    def test_interpolated_grids_do_not_change_bytes(self, monkeypatch):
        # off-lattice grids: one emitter on 41 x 41 points (a 513-point
        # table) and the shockwave generators on 65 x 65 (1025, 513 and 1025
        # points); the tables' rows are split over the pool
        from qicsim.field_kernel import ModeProfileEvaluator

        tables = []
        init = ModeProfileEvaluator.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tables.append(None if self._table is None else len(self._table[0]))

        monkeypatch.setattr(ModeProfileEvaluator, "__init__", recorded)
        cases = [
            (build_qic(single_qic_scenario(2), 2), 3.0,
             GridSpec(axes=(GridAxis(-3.93, 4.07, 0.2), GridAxis(-4.11, 3.89, 0.2))), [513]),
            (build_qic(shockwave_scenario(2), 2), 8.0,
             GridSpec(axes=(GridAxis(0.1, 16.1, 0.25), GridAxis(-8.05, 7.95, 0.25))),
             [1025, 513, 1025]),
        ]
        for modes, t, spec, want in cases:
            tables.clear()
            one = weighting_grid(modes, None, t, spec, threads=1)
            two = weighting_grid(modes, None, t, spec, threads=2)
            assert tables == want + want
            for name in ("q_field", "q_momentum", "p_field", "p_momentum"):
                assert np.array_equal(getattr(one, name), getattr(two, name))

    def test_one_evaluator_and_one_evaluate_call_per_generator(self, monkeypatch):
        # each generator's evaluator is given every grid radius and evaluates
        # them in one call; it splits its distinct radii over the pool itself
        from qicsim.field_kernel import ModeProfileEvaluator

        built, evaluated = [], []
        init, evaluate = ModeProfileEvaluator.__init__, ModeProfileEvaluator.evaluate

        def recorded_init(self, gen, t, d, radii, *args, **kwargs):
            built.append((gen, np.array(radii)))
            init(self, gen, t, d, radii, *args, **kwargs)

        def recorded_evaluate(self, dx):
            evaluated.append((self.gen, np.array(dx)))
            return evaluate(self, dx)

        monkeypatch.setattr(ModeProfileEvaluator, "__init__", recorded_init)
        monkeypatch.setattr(ModeProfileEvaluator, "evaluate", recorded_evaluate)
        modes = build_qic(shockwave_scenario(2), 2)
        spec = GridSpec(axes=(GridAxis(0.1, 16.1, 0.5), GridAxis(-4.0, 4.0, 0.5)))
        want = [(gen, np.linalg.norm(spec.points() - gen.smearing.center, axis=1))
                for gen in modes.generators]
        for threads in (1, 2):
            built.clear()
            evaluated.clear()
            weighting_grid(modes, None, 8.0, spec, threads=threads)
            for calls in (built, evaluated):
                assert len(calls) == len(want), threads
                for (gen, radii), (want_gen, want_radii) in zip(calls, want):
                    assert gen is want_gen and np.array_equal(radii, want_radii), threads

    def test_each_distinct_radius_evaluated_once(self, monkeypatch):
        # 41 x 41 lattice around the emitter: 435 distinct radii, many shared
        # by 4 or 8 points; the evaluator splits the distinct radii, not the points
        from qicsim.field_kernel import ModeProfileEvaluator

        seen = []
        distinct = ModeProfileEvaluator._evaluate_distinct

        def counted(self, u):
            seen.append(len(u))
            return distinct(self, u)

        monkeypatch.setattr(ModeProfileEvaluator, "_evaluate_distinct", counted)
        modes = build_qic(single_qic_scenario(2), 2)
        spec = GridSpec(axes=(GridAxis(-4.0, 4.0, 0.2), GridAxis(-4.0, 4.0, 0.2)))
        for threads in (1, 2):
            seen.clear()
            weighting_grid(modes, None, 3.0, spec, threads=threads)
            assert sum(seen) == 435, threads

    def test_threads_clamped_to_cpus(self, monkeypatch):
        import concurrent.futures

        workers = []

        class InlinePool:
            """Records the pool size asked for; runs the work in this thread."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        modes = build_qic(single_qic_scenario(3), 3)
        spec = GridSpec(axes=(GridAxis(-2.0, 2.0, 0.1), GridAxis(-2.0, 2.0, 0.1), 0.0))
        ncpu = len(os.sched_getaffinity(0))
        # 1681 points: an unclamped request would split them into 256 * ncpu
        # chunks, mostly of one radius or none
        many = weighting_grid(modes, 0, 2.0, spec, threads=64 * ncpu)
        assert workers == [ncpu]
        one = weighting_grid(modes, 0, 2.0, spec, threads=1)
        assert np.array_equal(many.q_momentum, one.q_momentum)

    def test_pool_error_reaches_caller_and_workers_exit(self):
        # t = r_outer puts the shell's centre on a light-cone edge, where dI/dt
        # diverges; the error comes out of the grid pool under its own name
        gen = Generator(RadialSmearing.hard_shell(0.5, 1.25, (0.0, 0.0), 2), coupling_time=0.0)
        spec = GridSpec(axes=(GridAxis(-1.0, 1.0, 0.5), GridAxis(-1.0, 1.0, 0.5)))
        before = threading.active_count()
        with pytest.raises(ConfigurationError, match=r"^dI/dt at r=0\.0, t=1\.25, coupling_time=0\.0: "
                                                     r"diverges on a light-cone edge$"):
            weighting_grid(build_qic([gen], 2), None, 1.25, spec, threads=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("d", (2, 3))
    def test_hard_shell_grid_is_translation_invariant(self, d):
        # dyadic center and axes make the translated points exact; the
        # distances 0, 1, sqrt 2, 2, sqrt 5 stay off the light-cone edges
        # |t - t0| +- r_inner / r_outer = 0.75, 1.5, 2.5, 3.25
        center = (0.5, -0.25, 0.75)[:d]

        def grid(c):
            axes = (GridAxis(c[0] - 1.0, c[0] + 2.0, 1.0), GridAxis(c[1] - 1.0, c[1], 1.0))
            return GridSpec(axes=axes + tuple(c[2:]))

        def shell_grid(c):
            gen = Generator(RadialSmearing.hard_shell(0.5, 1.25, c, d), coupling_time=0.0)
            return weighting_grid(build_qic([gen], d), 0, 2.0, grid(c))

        moved, at_origin = shell_grid(center), shell_grid((0.0,) * d)
        for name in ("q_field", "q_momentum", "p_field", "p_momentum"):
            a, b = getattr(moved, name), getattr(at_origin, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_mode_index_selection_and_errors(self):
        modes = build_qic(shockwave_scenario(3), 3)
        spec = line_spec(3, 0, 2, 0.5)
        fg = weighting_grid(modes, 1, 8.0, spec)
        assert fg.mode_indices == (1,)
        all_fg = weighting_grid(modes, None, 8.0, spec)
        assert np.array_equal(all_fg.q_field[1], fg.q_field[0])
        with pytest.raises(ConfigurationError):
            weighting_grid(modes, 7, 8.0, spec)
        with pytest.raises(ConfigurationError):
            weighting_grid(modes, 0, 8.0, line_spec(2))
        with pytest.raises(ConfigurationError):
            weighting_grid(modes, 0, math.inf, spec)
        with pytest.raises(ConfigurationError):
            weighting_grid(modes, 0, 8.0, spec, threads=0)
        # one point past the budget of points x generators (three here)
        with pytest.raises(ConfigurationError, match="1398102 points x 3 generators exceeds"):
            weighting_grid(modes, 0, 8.0, line_spec(3, 0.0, MAX_GRID_VALUES // 3, 1.0))


@st.composite
def grid_cases(draw, d):
    """1-3 compact generators of either kind (width <= 1.5, centre within 1
    of the origin, |t| <= 1) and a grid of at most 200 points, at most 8 per
    axis (a d=2 hard shell costs ~5-18 ms per distinct radius)."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        center = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(d))
        t, scale = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 1.5))
        if draw(st.booleans()):
            s = RadialSmearing.gaussian(scale, center, d)
        else:
            s = RadialSmearing.hard_shell(draw(st.floats(0.0, 0.9)) * scale, scale, center, d)
        gens.append(Generator(s, coupling_time=t))
    axes, budget = [], 200
    for _ in range(d):
        if draw(st.booleans()) or not axes:
            n, start = draw(st.integers(1, min(budget, 8))), draw(st.floats(-3.0, 3.0))
            step = draw(st.floats(0.05, 1.0))
            axes.append(GridAxis(start, start + (n - 1) * step, step))
            budget //= n
        else:
            axes.append(draw(st.floats(-3.0, 3.0)))
    return gens, GridSpec(axes=tuple(axes))


@pytest.mark.parametrize("d", (2, 3))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_weighting_grid_is_finite_or_typed_error(d, data):
    gens, spec = data.draw(grid_cases(d))
    t, threads = data.draw(st.floats(-2.0, 6.0)), data.draw(st.sampled_from((1, 2)))
    try:
        fg = weighting_grid(build_qic(gens, d), None, t, spec, threads=threads)
    except (ConfigurationError, QuadratureError):
        return
    for arr in (fg.q_field, fg.q_momentum, fg.p_field, fg.p_momentum):
        assert arr.shape == (len(fg.mode_indices),) + spec.shape
        assert np.isfinite(arr).all()
