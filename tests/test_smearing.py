import ast
import dataclasses
import math
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import spatial_eval
from qicsim.errors import ConfigurationError, QuadratureError
from qicsim.smearing import (
    RadialSmearing,
    _panel_gl,
    ft_oracle,
    radial_ft,
    support_radius,
)

SIGMA = 0.2


def gaussian3(center=(0.0, 0.0, 0.0)):
    return RadialSmearing.gaussian(SIGMA, center, 3)


class TestSpatialEval:
    def test_gaussian_peak(self):
        assert spatial_eval(gaussian3(), (0.0, 0.0, 0.0)) == 1.0

    def test_gaussian_one_sigma(self):
        val = spatial_eval(gaussian3(), (SIGMA, 0.0, 0.0))
        assert val == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_hard_shell_membership(self):
        s = RadialSmearing.hard_shell(1.1, 2.9, (0, 0, 0), 3)
        assert spatial_eval(s, (2.0, 0.0, 0.0)) == 1.0
        assert spatial_eval(s, (3.0, 0.0, 0.0)) == 0.0
        assert spatial_eval(s, (1.0, 0.0, 0.0)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^point has shape \(2,\), expected \(3,\)$"):
            spatial_eval(gaussian3(), (0.0, 0.0))

    def test_amplitude_scales_profile(self):
        s = RadialSmearing.gaussian(SIGMA, (0, 0, 0), 3, amplitude=2.5)
        assert spatial_eval(s, (0, 0, 0)) == 2.5


def test_oracles_import_only_data_classes():
    # the oracles stay independent of the production code they check
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "qicsim" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qicsim":
            imported |= {alias.name for alias in node.names}
    assert imported == {"Generator", "RadialSmearing"}
    assert all(dataclasses.is_dataclass(getattr(oracles, name)) for name in imported)


class TestConstruction:
    def test_bad_sigma(self):
        for sigma in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                RadialSmearing.gaussian(sigma, (0, 0, 0), 3)
        for amplitude in (math.nan, -math.inf):
            with pytest.raises(ConfigurationError):
                RadialSmearing.gaussian(0.2, (0, 0, 0), 3, amplitude=amplitude)

    def test_bad_shell_radii(self):
        for r_inner, r_outer in ((2.0, 1.0), (-0.5, 1.0), (math.nan, 1.0), (0.0, math.nan),
                                 (0.0, math.inf), (math.inf, math.inf)):
            with pytest.raises(ConfigurationError):
                RadialSmearing.hard_shell(r_inner, r_outer, (0, 0, 0), 3)

    def test_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            RadialSmearing.gaussian(0.2, (0.0,), 1)

    def test_center_length(self):
        for center in ((0.0, 0.0), (0.0, math.nan, 0.0), (math.inf, 0.0, 0.0)):
            with pytest.raises(ConfigurationError):
                RadialSmearing.gaussian(0.2, center, 3)

    def test_support_radius(self):
        assert support_radius(gaussian3()) == math.inf
        assert support_radius(RadialSmearing.hard_shell(1, 2, (0, 0, 0), 3)) == 2


class TestRadialFt:
    def test_gaussian_zero_k(self):
        assert radial_ft(gaussian3(), 0.0) == pytest.approx(
            (2 * math.pi * SIGMA**2) ** 1.5, rel=1e-14
        )
        s2 = RadialSmearing.gaussian(SIGMA, (0, 0), 2)
        assert radial_ft(s2, 0.0) == pytest.approx(2 * math.pi * SIGMA**2, rel=1e-14)

    def test_ball_volume_at_zero_k(self):
        s = RadialSmearing.hard_ball(2.0, (0, 0, 0), 3)
        assert radial_ft(s, 0.0) == pytest.approx(4 / 3 * math.pi * 8.0, rel=1e-12)
        disc = RadialSmearing.hard_shell(0.5, 2.0, (0, 0), 2)
        assert radial_ft(disc, 0.0) == pytest.approx(math.pi * (4.0 - 0.25), rel=1e-12)

    def test_series_joins_closed_form(self):
        # both branches around the small-k switch must match the
        # branch-free spatial quadrature at the same k
        k_cut = 1e-2 / 2.9
        for s in (
            RadialSmearing.hard_shell(1.1, 2.9, (0.0, 0.0, 0.0), 3),
            RadialSmearing.hard_shell(1.1, 2.9, (0.0, 0.0), 2),
        ):
            for k in (k_cut * 0.999, k_cut * 1.001):
                k_vec = (k,) + (0.0,) * (s.dimension - 1)
                direct = ft_oracle(s, k_vec).real
                assert radial_ft(s, k) == pytest.approx(direct, rel=1e-10)

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigurationError):
            radial_ft(gaussian3(), -1.0)

    def test_real_valued(self):
        ks = np.linspace(0.0, 40.0, 50)
        out = radial_ft(RadialSmearing.hard_shell(1.1, 2.9, (0, 0, 0), 3), ks)
        assert np.isrealobj(out)

    def test_large_k_decay_bounds(self):
        # shells: C/k^2 in d=3 and C/k^(3/2) in d=2; gaussian dies faster
        s3 = RadialSmearing.hard_shell(1.1, 2.9, (0, 0, 0), 3)
        s2 = RadialSmearing.hard_shell(1.1, 2.9, (0, 0), 2)
        for k in (50.0, 200.0, 1000.0):
            c3 = 4 * math.pi * (2.9 + 1.1 + 1.0)
            assert abs(radial_ft(s3, k)) <= c3 / k**2
            c2 = 2 * math.pi * (math.sqrt(2.9) + math.sqrt(1.1)) * math.sqrt(2 / math.pi) * 1.5
            assert abs(radial_ft(s2, k)) <= c2 / k**1.5
        assert abs(radial_ft(gaussian3(), 50.0 / SIGMA)) < 1e-300


SCENARIO_PROFILES = [
    RadialSmearing.gaussian(SIGMA, (0.3, -0.2, 0.5), 3),
    RadialSmearing.hard_ball(1.0, (0.0, 0.0, 0.0), 3),
    RadialSmearing.hard_shell(1.1, 2.9, (0.2, 0.0, 0.0), 3),
    RadialSmearing.hard_shell(3.1, 4.0, (0.0, 0.0, 0.0), 3),
    RadialSmearing.gaussian(SIGMA, (0.1, 0.4), 2),
    RadialSmearing.hard_shell(0.0, 0.9, (0.0, 0.0), 2),
    RadialSmearing.hard_shell(1.1, 2.9, (0.0, 0.0), 2),
    RadialSmearing.hard_shell(3.1, 4.0, (0.0, 0.0), 2),
]


@pytest.mark.parametrize("profile", SCENARIO_PROFILES, ids=lambda s: f"{s.kind}-d{s.dimension}")
def test_radial_ft_matches_oracle_100_random_k(profile):
    rng = np.random.default_rng(zlib.crc32(f"{profile.kind}-{profile.dimension}".encode()))
    scale = profile.sigma if profile.kind == "gaussian" else profile.r_outer
    center = np.asarray(profile.center)
    for _ in range(100):
        k = float(rng.uniform(0.0, 50.0 / scale))
        n = rng.normal(size=profile.dimension)
        n /= np.linalg.norm(n)
        k_vec = k * n
        closed = radial_ft(profile, k) * np.exp(1j * float(k_vec @ center))
        direct = ft_oracle(profile, k_vec)
        assert abs(closed - direct) <= 1e-8 * (1.0 + abs(radial_ft(profile, k)))


def test_oracle_real_for_centered_profile():
    s = RadialSmearing.hard_shell(1.1, 2.9, (0.0, 0.0, 0.0), 3)
    val = ft_oracle(s, (0.7, -0.3, 0.2))
    assert abs(val.imag) < 1e-12


def test_oracle_cross_checks_radial_ft_shell():
    s = RadialSmearing.hard_shell(3.1, 4.0, (0.0, 0.0, 0.0), 3)
    k = 0.5
    direct = ft_oracle(s, (0.0, 0.0, k))
    assert direct.real == pytest.approx(radial_ft(s, k), rel=1e-9)


def ft_oracle_full_nodes(s, k_vec, tol=1e-11):
    """Reference: the unfolded rule, a complex phase matrix over every
    angular node (the algorithm the folded `ft_oracle` replaces).  Also
    returns the radial and angular panel counts of each refinement."""
    k_vec = np.asarray(k_vec, dtype=float)
    kmag = float(np.linalg.norm(k_vec))
    if s.kind == "gaussian":
        r_lo, r_hi = 0.0, 9.0 * s.sigma
        profile = lambda r: np.exp(-(r * r) / (2.0 * s.sigma**2))
    else:
        r_lo, r_hi = s.r_inner, s.r_outer
        profile = lambda r: np.ones_like(r)
    panels = []

    def evaluate(refine):
        n_r = refine * (int(math.ceil(kmag * (r_hi - r_lo) / math.pi)) + 8)
        n_th = refine * (int(math.ceil(kmag * r_hi / math.pi)) + 8)
        panels.append((n_r, n_th))
        r, wr = _panel_gl(r_lo, r_hi, n_r)
        if s.dimension == 3:
            th, wth = _panel_gl(0.0, math.pi, n_th)
            ang = np.sin(th) * wth
            radial = 2.0 * np.pi * r * r * profile(r) * wr
        else:
            th, wth = _panel_gl(0.0, 2.0 * math.pi, n_th)
            ang = wth
            radial = r * profile(r) * wr
        cos_th = np.cos(th)
        acc = np.zeros(len(th), dtype=complex)
        for i0 in range(0, len(r), 256):
            rows = slice(i0, i0 + 256)
            acc += radial[rows] @ np.exp(1j * kmag * np.outer(r[rows], cos_th))
        return complex(acc @ ang)

    prev = evaluate(1)
    for refine in (2, 4, 8):
        cur = evaluate(refine)
        if abs(cur - prev) <= tol * (1.0 + abs(cur)):
            return s.amplitude * cur * np.exp(1j * float(np.dot(k_vec, s.center))), panels
        prev = cur
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("profile", SCENARIO_PROFILES, ids=lambda s: f"{s.kind}-d{s.dimension}")
def test_folded_oracle_matches_full_node_reference(profile):
    scale = profile.sigma if profile.kind == "gaussian" else profile.r_outer
    r_hi = 9.0 * profile.sigma if profile.kind == "gaussian" else profile.r_outer
    direction = np.array([2.0, -1.0, 2.0][: profile.dimension])
    direction /= np.linalg.norm(direction)
    # refine-1 angular panel counts 11 (odd), 10 (even) and the suite's largest |k|
    odd_even = set()
    for kmag in (2.5 * math.pi / r_hi, 1.5 * math.pi / r_hi, 50.0 / scale):
        ref, panels = ft_oracle_full_nodes(profile, kmag * direction)
        odd_even.add(panels[0][1] % 2)
        val = ft_oracle(profile, kmag * direction)
        assert abs(val - ref) <= 1e-12 * (1.0 + abs(ref))
    assert odd_even == {0, 1}


@pytest.mark.parametrize("hi", (math.pi, 2.0 * math.pi))
@pytest.mark.parametrize("n_panels", (1, 2, 11, 152, 193))
def test_angular_panel_nodes_are_mirror_symmetric(n_panels, hi):
    # the folded angular rule pairs node j with node len - 1 - j; 193
    # panels show the largest deviation (2.25 ulp of hi) up to n = 400
    th, _ = _panel_gl(0.0, hi, n_panels)
    assert len(th) % 2 == 0
    assert np.max(np.abs(th[::-1] - (hi - th))) <= 4.0 * np.spacing(hi)


def test_oracle_non_convergence_names_profile_and_k():
    s = RadialSmearing.hard_shell(1.1, 2.9, (0.0, 0.0), 2)
    with pytest.raises(QuadratureError, match=r"for hard_shell at \|k\|=5 ") as info:
        ft_oracle(s, (3.0, 4.0), tol=0.0)
    assert info.value.value is not None and info.value.estimate > 0.0


def test_oracle_error_value_carries_amplitude_and_phase():
    # the stalled value must be the transform itself, amplitude and center
    # phase included, within the reported estimate of the converged one
    s = RadialSmearing.hard_shell(1.1, 2.9, (1.0, 0.5), 2, amplitude=2.0)
    with pytest.raises(QuadratureError) as info:
        ft_oracle(s, (3.0, 4.0), tol=0.0)
    converged = ft_oracle(s, (3.0, 4.0))
    assert converged == pytest.approx(0.668 - 2.257j, abs=1e-3)
    assert abs(info.value.value - converged) <= info.value.estimate


@st.composite
def small_profiles(draw):
    d = draw(st.sampled_from((2, 3)))
    scale = draw(st.floats(0.2, 4.0))
    center = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(d))
    if draw(st.booleans()):
        profile = RadialSmearing.gaussian(scale, center, d)
    else:
        profile = RadialSmearing.hard_shell(draw(st.floats(0.0, 0.9)) * scale, scale, center, d)
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    if d == 2:
        direction = np.array([math.cos(phi), math.sin(phi)])
    else:
        z = draw(st.floats(-1.0, 1.0))
        rho = math.sqrt(1.0 - z * z)
        direction = np.array([rho * math.cos(phi), rho * math.sin(phi), z])
    return profile, draw(st.floats(0.0, 10.0 / scale)) * direction


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(small_profiles())
def test_oracle_matches_closed_form_or_raises(case):
    profile, k_vec = case
    kmag = float(np.linalg.norm(k_vec))
    try:
        direct = ft_oracle(profile, k_vec)
    except QuadratureError:
        return
    rho = radial_ft(profile, kmag)
    closed = rho * np.exp(1j * float(k_vec @ np.asarray(profile.center)))
    assert abs(closed - direct) <= 1e-8 * (1.0 + abs(rho))
