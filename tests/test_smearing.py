import math
import zlib

import numpy as np
import pytest

from qicsim.errors import ConfigurationError
from qicsim.smearing import (
    RadialSmearing,
    ft_oracle,
    radial_ft,
    spatial_eval,
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
        with pytest.raises(ConfigurationError):
            spatial_eval(gaussian3(), (0.0, 0.0))

    def test_amplitude_scales_profile(self):
        s = RadialSmearing.gaussian(SIGMA, (0, 0, 0), 3, amplitude=2.5)
        assert spatial_eval(s, (0, 0, 0)) == 2.5


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
