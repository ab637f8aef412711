import numpy as np
import pytest

from qicsim.errors import ConfigurationError
from qicsim.qic import GridAxis, build_qic
from qicsim.scenarios import (
    default_grid,
    preset,
    preset_fingerprint,
    serialize_preset,
    shockwave_scenario,
    single_qic_scenario,
    table1_scenario,
)

FROZEN_FINGERPRINTS = {
    ("table1", 2): "03a5fae935f3349f5dc0ceb12827ec3f317be7d274e5e74b39280cf42ae92f71",
    ("table1", 3): "835826f6b75d58024b689d857c7b221fd69dd6b2857bfc31383d64b6c1aff7d6",
    ("single", 2): "88e516ab153b528a2871d39ad25cba98d7c7aaa853d156174cce7a39751e3270",
    ("single", 3): "b3540b0ddea114d6159cea924c2378e7d794511d3a2cd8a49088ad944eb90ee1",
    ("shockwave", 2): "102e36a73a95662b947d62db91ccaf73d5bd0ba8e8298cbfda6c9575a021add9",
    ("shockwave", 3): "98baf6c4aec9fe188c76b05f671a0baf1eaafa521696f4f9b5313c17d723496a",
}


class TestTable1Preset:
    @pytest.mark.parametrize("d", (3, 2))
    def test_parameters(self, d):
        sc = table1_scenario(d)
        assert sc.alice.smearing.r_inner == 0.0
        assert sc.alice.smearing.r_outer == 1.0
        assert sc.alice.coupling_time == 0.0
        assert sc.alice.coupling == 1.0
        radii = [(b.smearing.r_inner, b.smearing.r_outer) for b in sc.bobs]
        assert radii == [(0.0, 0.9), (1.1, 2.9), (3.1, 4.0)]
        assert all(b.coupling == 0.2 for b in sc.bobs)
        assert all(b.coupling_time == 2.0 for b in sc.bobs)

    @pytest.mark.parametrize("d", (3, 2))
    def test_geometry_classes(self, d):
        assert table1_scenario(d).geometry == ("inside", "straddling", "outside")

    def test_geometry_margins(self):
        sc = table1_scenario(3)
        r_a = sc.alice.smearing.r_outer
        delta_t = sc.bobs[0].coupling_time - sc.alice.coupling_time
        assert delta_t - r_a > sc.bobs[0].smearing.r_outer  # 1 > 0.9
        assert r_a + delta_t < sc.bobs[2].smearing.r_inner  # 3 < 3.1


class TestEvolvePresets:
    @pytest.mark.parametrize("d", (3, 2))
    def test_single_parameters(self, d):
        gens = single_qic_scenario(d)
        assert len(gens) == 1
        g = gens[0]
        assert g.smearing.kind == "gaussian"
        assert g.smearing.sigma == 0.2
        assert g.smearing.center == (0.0,) * d
        assert g.coupling_time == 0.0
        assert preset("single", d).default_times == (0.0, 2.0, 4.0)

    @pytest.mark.parametrize("d", (3, 2))
    def test_shockwave_parameters(self, d):
        gens = shockwave_scenario(d)
        assert [g.coupling_time for g in gens] == [1.0, 2.0, 3.0]
        assert [g.smearing.center[0] for g in gens] == [6.5, 8.0, 9.5]
        assert all(g.smearing.center[1:] == (0.0,) * (d - 1) for g in gens)
        assert all(g.smearing.sigma == 0.2 for g in gens)
        assert preset("shockwave", d).default_times == (8.0,)

    @pytest.mark.parametrize("d", (3, 2))
    def test_shockwave_builds_three_modes(self, d):
        modes = build_qic(shockwave_scenario(d), d)
        assert modes.n_modes == 3
        assert modes.skipped == ()
        assert np.all(modes.alphas > 0.0)

    def test_default_grids(self):
        g3 = default_grid("single", 3)
        assert g3.axes[0] == GridAxis(-6.0, 6.0, 0.05)
        assert g3.axes[1] == GridAxis(-6.0, 6.0, 0.05)
        assert g3.axes[2] == 0.0
        g2 = default_grid("shockwave", 2)
        assert g2.axes[0] == GridAxis(0.0, 16.0, 0.1)
        assert g2.axes[1] == GridAxis(-8.0, 8.0, 0.1)

    def test_channel_preset_has_no_default_grid(self):
        with pytest.raises(ConfigurationError, match="^no default grid for preset 'table1'$"):
            default_grid("table1", 3)


class TestPresetRegistry:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            preset("nope", 3)
        with pytest.raises(ConfigurationError):
            table1_scenario(4)

    @pytest.mark.parametrize("key", sorted(FROZEN_FINGERPRINTS))
    def test_fingerprints_frozen(self, key):
        name, d = key
        assert preset_fingerprint(name, d) == FROZEN_FINGERPRINTS[key]

    def test_serialization_is_canonical(self):
        a = serialize_preset("table1", 3)
        b = serialize_preset("table1", 3)
        assert a == b
        assert '"name":"table1"' in a
