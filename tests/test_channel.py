import cmath
import math
import warnings
from itertools import product

import numpy as np
import pytest
from _twin import brute_force_distribution

from qicsim.channel import (
    ChannelMoments,
    OutcomeDistribution,
    _finalize_distribution,
    capacity,
    capacity_table,
    classify_receiver,
    distribution_from_moments,
    joint_distribution,
    make_channel_scenario,
    marginalize,
    scenario_moments,
    mutual_information,
    receiver_subsets,
    subset_label,
)
import qicsim.channel as channel
from qicsim.errors import ConfigurationError, NumericConsistencyError, QuadratureError
from qicsim.field_kernel import pairing
from qicsim.qic import Generator
from qicsim.smearing import RadialSmearing


def shell_gen(d, r, rr, t, coupling=0.2):
    return Generator(RadialSmearing.hard_shell(r, rr, (0.0,) * d, d), t, coupling)


class TestJointDistribution:
    def test_bit0_independent_of_sender(self, table1_3):
        other_alice = Generator(
            RadialSmearing.gaussian(0.3, (0.5, 0.0, 0.0), 3), 0.0, coupling=1.0
        )
        sc2 = make_channel_scenario(other_alice, table1_3.bobs, 3)
        p_a = joint_distribution(table1_3, 0)
        p_b = joint_distribution(sc2, 0)
        assert np.array_equal(p_a.probs, p_b.probs)

    def test_zero_couplings_leave_detectors_unexcited(self, table1_3):
        bobs = tuple(
            Generator(b.smearing, b.coupling_time, coupling=0.0) for b in table1_3.bobs
        )
        sc = make_channel_scenario(table1_3.alice, bobs, 3)
        p = joint_distribution(sc, 1)
        assert p.probs[0, 0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_bad_bit_rejected(self, table1_3):
        with pytest.raises(ConfigurationError):
            joint_distribution(table1_3, 2)

    def test_matches_brute_force_same_moments(self, moments_3):
        lams = [0.2, 0.2, 0.2]
        for bit in (0, 1):
            ours = distribution_from_moments(moments_3, lams, float(bit))
            twin = brute_force_distribution(
                moments_3.noise_cov, moments_3.signal_im, lams, float(bit)
            )
            for z, p in twin.items():
                assert ours.probs[z] == pytest.approx(p, abs=1e-12)

    def test_matches_brute_force_random_moments(self):
        rng = np.random.default_rng(51)
        for n in (1, 2, 3, 4, 5):
            A = rng.normal(size=(n, n))
            V = A @ A.T + 0.2 * np.eye(n)
            m = rng.normal(size=n)
            lams = rng.uniform(0.05, 0.4, size=n)
            moments = ChannelMoments(noise_cov=V, signal_im=m, error_bound=0.0)
            for lam_a in (0.0, 0.7) if n < 5 else (0.7,):
                ours = distribution_from_moments(moments, lams, lam_a)
                twin = brute_force_distribution(V, m, lams, lam_a,
                                                gaps=list(rng.uniform(0, 4, size=n)))
                for z, p in twin.items():
                    assert ours.probs[z] == pytest.approx(p, abs=1e-13)


def sign_sum_reference(V, m, couplings, lam_alice):
    """The 2 * 4^n sign sum term by term (sender sign, signs, primed
    signs), fsum-ed per outcome: the raw distribution before clamping."""
    lam = np.asarray(couplings, dtype=float)
    n = len(lam)
    signs = (1.0, -1.0)
    outcomes = list(product((0, 1), repeat=n))
    terms = {z: [] for z in outcomes}
    for s_a in signs:
        for s in product(signs, repeat=n):
            for sp in product(signs, repeat=n):
                c = lam * (np.array(s) - np.array(sp))
                decoh = math.exp(-0.5 * float(c @ V @ c))
                signal = cmath.exp(2j * lam_alice * s_a * float(c @ m))
                base = 0.5 * decoh * signal.real / 4.0**n
                for z in outcomes:
                    fac = 1.0
                    for i, zi in enumerate(z):
                        if zi == 1:
                            fac *= s[i] * sp[i]
                    terms[z].append(base * fac)
    return np.array([math.fsum(terms[z]) for z in outcomes]).reshape((2,) * n)


def _random_moment_cases():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            A = rng.normal(size=(n, n))
            V = A @ A.T + 0.1 * np.eye(n)
            m = rng.normal(size=n)
            lams = rng.uniform(0.02, 0.5, size=n)
            for lam_a in (0.0, float(rng.uniform(0.1, 2.0))):
                yield V, m, lams, lam_a


class TestClassSumMatchesTermByTerm:
    """The 3^n class sum equals the 2 * 4^n term-by-term sum bit for bit,
    compared before clamping and normalization."""

    @pytest.fixture(autouse=True)
    def raw_sums(self, monkeypatch):
        monkeypatch.setattr(channel, "_finalize_distribution", lambda raw, detectors: raw)

    @staticmethod
    def assert_same(V, m, lams, lam_a):
        moments = ChannelMoments(noise_cov=V, signal_im=m, error_bound=0.0)
        ours = distribution_from_moments(moments, lams, lam_a)
        ref = sign_sum_reference(V, m, lams, lam_a)
        assert np.array_equal(ours, ref)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))

    def test_random_moments(self):
        for case in _random_moment_cases():
            self.assert_same(*case)

    @pytest.mark.parametrize("dim", (3, 2))
    def test_table1_moments(self, dim, table1_3, table1_2, moments_3, moments_2):
        sc, moments = (table1_3, moments_3) if dim == 3 else (table1_2, moments_2)
        lams = [b.coupling for b in sc.bobs]
        for bit in (0, 1):
            self.assert_same(moments.noise_cov, moments.signal_im, lams,
                             sc.alice.coupling * bit)


@pytest.mark.parametrize("bad, label", [((1, 2), "bob 1, bob 2"), ((2, None), "bob 2, alice")],
                         ids=["bob-bob", "bob-alice"])
def test_moment_stall_names_the_pair(table1_3, monkeypatch, bad, label):
    real = channel.pairing_detail
    i, j = bad
    culprit = (table1_3.bobs[i], table1_3.alice if j is None else table1_3.bobs[j])

    def stalling(gi, gj, d, tol):
        if gi is culprit[0] and gj is culprit[1]:
            raise QuadratureError("radial integral stalled", value=1 + 2j, estimate=0.5)
        return real(gi, gj, d, tol)

    monkeypatch.setattr(channel, "pairing_detail", stalling)
    with pytest.raises(QuadratureError, match=rf"^pairing \({label}\): radial integral stalled$") as info:
        scenario_moments(table1_3)
    assert (info.value.value, info.value.estimate) == (1 + 2j, 0.5)
    assert isinstance(info.value.__cause__, QuadratureError)
    calls = []
    monkeypatch.setattr(channel, "pairing_detail", lambda *a: calls.append(a) or real(*a))
    scenario_moments(table1_3)
    assert len(calls) == 9


class TestDistributionValidation:
    def test_negative_beyond_floor_raises(self):
        raw = np.array([1.1, -1e-6]).reshape(2, 1)[:, 0]
        with pytest.raises(NumericConsistencyError):
            _finalize_distribution(raw.reshape(2), ("B1",))

    def test_tiny_negative_clamped(self):
        raw = np.array([1.0 + 5e-13, -5e-13])
        dist = _finalize_distribution(raw, ("B1",))
        assert dist.probs[1] == 0.0
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_bad_normalization_raises(self):
        with pytest.raises(NumericConsistencyError):
            _finalize_distribution(np.array([0.7, 0.2]), ("B1",))


class TestMarginalize:
    def test_full_subset_is_identity(self, table1_3):
        p = joint_distribution(table1_3, 1)
        m = marginalize(p, (0, 1, 2))
        assert np.array_equal(m.probs, p.probs)

    def test_uniform_marginal(self):
        probs = np.full((2, 2, 2), 1.0 / 8.0)
        p = OutcomeDistribution(probs=probs, detectors=("B1", "B2", "B3"))
        m = marginalize(p, (1,))
        assert np.allclose(m.probs, [0.5, 0.5])
        assert m.detectors == ("B2",)

    def test_no_signaling_outside_detector(self, table1_2, moments_2):
        p0 = marginalize(joint_distribution(table1_2, 0, moments_2), (2,))
        p1 = marginalize(joint_distribution(table1_2, 1, moments_2), (2,))
        assert np.abs(p0.probs - p1.probs).max() <= 1e-9

    def test_empty_subset_rejected(self, table1_3):
        p = joint_distribution(table1_3, 0)
        with pytest.raises(ConfigurationError):
            marginalize(p, ())
        with pytest.raises(ConfigurationError):
            marginalize(p, (0, 0))
        with pytest.raises(ConfigurationError):
            marginalize(p, (5,))


class TestMutualInformation:
    def test_deterministic_prior_gives_zero(self):
        p0 = np.array([0.7, 0.3])
        p1 = np.array([0.2, 0.8])
        assert mutual_information(0.0, p0, p1) == 0.0
        assert mutual_information(1.0, p0, p1) == 0.0

    def test_perfect_binary_channel(self):
        assert mutual_information(0.5, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2) == pytest.approx(1.0)

    def test_z_channel_regression_value(self):
        # four-term oracle evaluated by hand and frozen
        p0 = np.array([1.0, 0.0])
        p1 = np.array([0.5, 0.5])
        q = 0.5
        oracle = 0.0
        pb = q * p0 + (1 - q) * p1
        for w, cond in ((q, p0), (1 - q, p1)):
            for b in range(2):
                if cond[b] > 0:
                    oracle += w * cond[b] * math.log2(cond[b] / pb[b])
        val = mutual_information(q, p0, p1, 2)
        assert val == pytest.approx(oracle, rel=1e-14)
        assert val == pytest.approx(0.311278124459133, rel=1e-12)

    def test_base_conversion(self):
        p0 = np.array([0.9, 0.1])
        p1 = np.array([0.4, 0.6])
        bits = mutual_information(0.3, p0, p1, 2)
        nats = mutual_information(0.3, p0, p1, "e")
        assert nats == pytest.approx(bits * math.log(2.0), rel=1e-13)

    def test_invalid_inputs(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ConfigurationError):
            mutual_information(1.5, p, p)
        with pytest.raises(ConfigurationError):
            mutual_information(0.5, p, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ConfigurationError):
            mutual_information(0.5, p, p, base=10)


class TestCapacity:
    def test_identical_conditionals(self):
        p = np.array([0.3, 0.7])
        c, q = capacity(p, p.copy())
        assert c == 0.0
        assert q == 0.5

    def test_disjoint_conditionals(self):
        c, q = capacity(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert q == pytest.approx(0.5, abs=1e-6)

    def test_maximum_is_interior_optimum(self):
        p0 = np.array([0.9, 0.1])
        p1 = np.array([0.3, 0.7])
        c, q = capacity(p0, p1, 2, tol=1e-12)
        for dq in (-0.01, 0.01):
            assert mutual_information(min(max(q + dq, 0), 1), p0, p1, 2) <= c + 1e-14

    @pytest.mark.parametrize("tol", (0.0, -1.0, 1e-16, math.nan))
    def test_search_ends_where_the_bracket_stops_shrinking(self, tol):
        # below rounding level (or NaN) the search runs until the bracket stops shrinking
        p0, p1 = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        c, q = capacity(p0, p1, 2, tol=tol)
        c_ref, q_ref = capacity(p0, p1, 2, tol=1e-12)
        assert c == pytest.approx(c_ref, rel=1e-14) and q == pytest.approx(q_ref, abs=1e-6)


class TestCapacityTable:
    def test_silent_sender_gives_zero_everywhere(self, table1_3):
        silent = make_channel_scenario(
            Generator(table1_3.alice.smearing, 0.0, coupling=0.0),
            table1_3.bobs,
            3,
        )
        res = capacity_table(silent, base=2)
        assert all(v == 0.0 for v in res.capacities.values())

    @pytest.mark.parametrize("table", ("captable_3", "captable_2", "captable_four_2"),
                             ids=("3", "2", "four-d2"))
    def test_subset_monotonicity(self, table, request):
        # adding a receiver never lowers a capacity (data processing)
        res = request.getfixturevalue(table)
        n = len(res.capacities).bit_length()  # 2^n - 1 subsets
        caps = {frozenset(s): res.capacities[subset_label(s)] for s in receiver_subsets(n)}
        for small in caps:
            for big in caps:
                if small < big:
                    assert caps[small] <= caps[big] + 1e-12

    def test_zero_capacity_reports_prior_one_half(self, captable_2):
        # d=2 table1: the outside receiver's two marginals differ only by
        # rounding, so the search maximum clamps to 0; the prior it wandered
        # to (0.875495 before) carries no information
        assert captable_2.capacities["B3"] == 0.0
        assert captable_2.priors["B3"] == 0.5
        assert all(q != 0.5 for label, q in captable_2.priors.items() if label != "B3")

    def test_capacities_follow_receiver_subsets_order(self, captable_3):
        assert list(captable_3.capacities) == ["B1", "B2", "B3", "B1B2", "B2B3", "B1B3", "B1B2B3"]
        assert receiver_subsets(3) == [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2)]
        assert [len(receiver_subsets(n)) for n in (1, 2, 4)] == [1, 3, 15]


@pytest.fixture(scope="module")
def captable_four_2(table1_2):
    """Table1 in d=2 plus a second outside shell 4.1-5.0 as receiver B4."""
    bobs = table1_2.bobs + (shell_gen(2, 4.1, 5.0, 2.0),)
    return capacity_table(make_channel_scenario(table1_2.alice, bobs, 2), base=2)


class TestFourReceivers:
    def test_second_outside_receiver_raises_capacity(self, captable_four_2):
        caps = captable_four_2.capacities
        assert caps["B2B3B4"] > caps["B2B3"]
        assert caps["B4"] <= 1e-15  # outside the cone: it signals nothing alone

    def test_three_receiver_subsets_match_table1(self, captable_four_2, captable_2):
        for label, c in captable_2.capacities.items():
            assert abs(captable_four_2.capacities[label] - c) <= 1e-15, label


class TestScenarioConstruction:
    def test_delta_t_must_be_positive(self, table1_3):
        bobs = tuple(Generator(b.smearing, -1.0, b.coupling) for b in table1_3.bobs)
        with pytest.raises(ConfigurationError):
            make_channel_scenario(table1_3.alice, bobs, 3)

    def test_no_receivers_rejected(self, table1_3):
        with pytest.raises(ConfigurationError, match="no receiver"):
            make_channel_scenario(table1_3.alice, (), 3)

    def test_receivers_over_budget_refused_before_any_pairing(self, table1_3, monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "pairing_detail", lambda *a: calls.append(a))
        with pytest.raises(ConfigurationError, match="^9 receivers: the 2\\^9 x 3\\^9 sign table"):
            make_channel_scenario(table1_3.alice, table1_3.bobs * 3, 3)
        assert calls == []
        with pytest.raises(ConfigurationError, match="^9 receivers"):
            distribution_from_moments(ChannelMoments(np.eye(9), np.zeros(9), 0.0), [0.2] * 9, 1.0)
        # eight receivers fit the budget
        p = distribution_from_moments(ChannelMoments(np.eye(8), np.zeros(8), 0.0), [0.2] * 8, 1.0)
        assert p.probs.shape == (2,) * 8

    def test_shared_decoding_time(self, table1_3):
        bobs = list(table1_3.bobs)
        bobs[1] = Generator(bobs[1].smearing, 2.5, bobs[1].coupling)
        with pytest.raises(ConfigurationError):
            make_channel_scenario(table1_3.alice, bobs, 3)

    def test_shuffled_geometry_keeps_labels_without_warning(self, table1_3):
        shuffled = (table1_3.bobs[1], table1_3.bobs[0], table1_3.bobs[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc = make_channel_scenario(table1_3.alice, shuffled, 3)
        assert sc.geometry == ("straddling", "inside", "outside")

    def test_classification_inequalities(self, table1_3):
        # delta_t - R_A = 1 > 0.9 keeps the first shell strictly inside;
        # R_A + delta_t = 3 < 3.1 keeps the third strictly outside
        assert classify_receiver(table1_3.bobs[0], table1_3.alice, 2.0) == "inside"
        assert classify_receiver(table1_3.bobs[1], table1_3.alice, 2.0) == "straddling"
        assert classify_receiver(table1_3.bobs[2], table1_3.alice, 2.0) == "outside"
        hugger = shell_gen(3, 0.5, 1.5, 2.0)
        assert classify_receiver(hugger, table1_3.alice, 2.0) == "overlapping"


def _probe_combination(d, table):
    """Receiver {B2, B4} moments where B4 has zero symplectic pairing with
    both quadratures of the sender's information mode."""
    alice, b2 = table.alice, table.bobs[1]
    t_dec = b2.coupling_time
    trials = [
        shell_gen(d, 1.2, 1.6, t_dec),
        shell_gen(d, 1.8, 2.2, t_dec),
        shell_gen(d, 3.2, 3.8, t_dec),
    ]
    s_a = [pairing(t, alice, d, tol=1e-11) for t in trials]
    b = s_a[0].imag / s_a[1].imag
    c = (s_a[0].real - b * s_a[1].real) / s_a[2].real
    coef = np.array([1.0, -b, -c])
    s4a = coef @ np.array(s_a)
    assert abs(s4a) <= 1e-9  # orthogonal to both mode quadratures
    pool = [b2] + trials
    S = np.array([[pairing(x, y, d, tol=1e-11) for y in pool] for x in pool])
    v22 = S[0, 0].real
    v24 = float(coef @ S[1:, 0].real)
    v44 = float(coef @ S[1:, 1:].real @ coef)
    m2 = pairing(b2, alice, d, tol=1e-11).imag
    return v22, v24, v44, m2


def _capacity_pair(v22, v24, v44, m2):
    lam = (0.2, 0.2)
    single = ChannelMoments(np.array([[v22]]), np.array([m2]), 0.0)
    joint = ChannelMoments(
        np.array([[v22, v24], [v24, v44]]), np.array([m2, 0.0]), 0.0
    )
    c_single, _ = capacity(
        distribution_from_moments(single, [0.2], 0.0),
        distribution_from_moments(single, [0.2], 1.0),
        2,
    )
    c_joint, _ = capacity(
        distribution_from_moments(joint, lam, 0.0),
        distribution_from_moments(joint, lam, 1.0),
        2,
    )
    return c_single, c_joint


def test_orthogonal_uncorrelated_probe_adds_no_capacity(table1_3):
    """With zero signal pairing AND zero noise correlation the probe is
    provably useless; this is the sharp version of the no-gain property."""
    v22, v24, v44, m2 = _probe_combination(3, table1_3)
    c_single, c_joint = _capacity_pair(v22, 0.0, v44, m2)
    assert abs(c_joint - c_single) <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason=(
        "zero symplectic pairing with the sender's mode does not neutralize a "
        "probe whose vacuum noise correlates with another receiver: the same "
        "noise-reduction mechanism that makes the outside detector useful "
        "strictly increases the capacity here as well"
    ),
)
def test_orthogonal_probe_nullity_as_specified(table1_3):
    v22, v24, v44, m2 = _probe_combination(3, table1_3)
    assert abs(v24) > 1e-3  # the probe is genuinely noise-correlated
    c_single, c_joint = _capacity_pair(v22, v24, v44, m2)
    assert abs(c_joint - c_single) <= 1e-8
