import cmath
import math
import warnings
from itertools import product

import numpy as np
import pytest
from _twin import brute_force_distribution

from qicsim.channel import (
    ChannelMoments,
    _finalize_distribution,
    capacity,
    capacity_table,
    classify_receiver,
    distribution_from_moments,
    make_channel_scenario,
    marginalize,
    scenario_moments,
    mutual_information,
    receiver_subsets,
    subset_label,
)
import qicsim.channel as channel
from qicsim import field_kernel, quadrature
from qicsim.errors import ConfigurationError, NumericConsistencyError, QuadratureError
from qicsim.field_kernel import pairing
from qicsim.qic import Generator
from qicsim.smearing import RadialSmearing


def shell_gen(d, r, rr, t, coupling=0.2):
    return Generator(RadialSmearing.hard_shell(r, rr, (0.0,) * d, d), t, coupling)


class TestJointDistribution:
    def test_bit0_independent_of_sender(self, table1_3, captable_3):
        other_alice = Generator(
            RadialSmearing.gaussian(0.3, (0.5, 0.0, 0.0), 3), 0.0, coupling=1.0
        )
        sc2 = make_channel_scenario(other_alice, table1_3.bobs, 3)
        p_a = captable_3.distributions[0]
        p_b = capacity_table(sc2).distributions[0]
        assert np.array_equal(p_a, p_b)

    def test_zero_couplings_leave_detectors_unexcited(self, table1_3):
        bobs = tuple(
            Generator(b.smearing, b.coupling_time, coupling=0.0) for b in table1_3.bobs
        )
        sc = make_channel_scenario(table1_3.alice, bobs, 3)
        p = capacity_table(sc).distributions[1]
        assert p[0, 0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_brute_force_same_moments(self, moments_3):
        lams = [0.2, 0.2, 0.2]
        for bit in (0, 1):
            ours = distribution_from_moments(moments_3, lams, float(bit))
            twin = brute_force_distribution(
                moments_3.noise_cov, moments_3.signal_im, lams, float(bit)
            )
            for z, p in twin.items():
                assert ours[z] == pytest.approx(p, abs=1e-12)

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
                    assert ours[z] == pytest.approx(p, abs=1e-13)


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
        monkeypatch.setattr(channel, "_finalize_distribution", lambda raw: raw)

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
    real = field_kernel.pairing_detail
    i, j = bad
    culprit = (table1_3.bobs[i], table1_3.alice if j is None else table1_3.bobs[j])

    def stalling(gi, gj, d, tol, tail):
        if gi is culprit[0] and gj is culprit[1]:
            raise QuadratureError("radial integral stalled", value=1 + 2j, estimate=0.5)
        return real(gi, gj, d, tol, tail)

    monkeypatch.setattr(field_kernel, "pairing_detail", stalling)
    with pytest.raises(QuadratureError, match=rf"^pairing \({label}\): radial integral stalled$") as info:
        scenario_moments(table1_3)
    assert (info.value.value, info.value.estimate) == (1 + 2j, 0.5)
    assert isinstance(info.value.__cause__, QuadratureError)
    calls = []
    monkeypatch.setattr(field_kernel, "pairing_detail", lambda *a: calls.append(a) or real(*a))
    scenario_moments(table1_3)
    assert len(calls) == 9



def test_tail_failure_names_the_pair(table1_2, monkeypatch):
    # the d=2 tails of a scenario share one E_p call; when it fails, the
    # error still names the first pair whose tail fails
    monkeypatch.setattr(quadrature, "EXPINT_STEPS", 1)
    with pytest.raises(QuadratureError, match=r"^pairing \(bob 0, bob 0\): E_p continued "
                       r"fraction: no convergence in 1 steps$"):
        scenario_moments(table1_2)


def test_tail_planning_error_names_the_pair(table1_2):
    # bob 2 is bob 1 moved by 1e-4: their pairing's kernel would need the
    # expansion of a centre on a light-cone edge, which is refused while the
    # tails are planned; the pairs before it planned fine
    b1 = table1_2.bobs[1]
    moved = Generator(RadialSmearing.hard_shell(b1.smearing.r_inner, b1.smearing.r_outer,
                                                (1e-4, 0.0), 2), b1.coupling_time, b1.coupling)
    sc = make_channel_scenario(table1_2.alice, (table1_2.bobs[0], b1, moved), 2)
    with pytest.raises(ConfigurationError, match=r"^pairing \(bob 1, bob 2\): too close to a centre"):
        scenario_moments(sc)


class TestDistributionValidation:
    def test_negative_beyond_floor_raises(self):
        raw = np.array([1.1, -1e-6]).reshape(2, 1)[:, 0]
        with pytest.raises(NumericConsistencyError):
            _finalize_distribution(raw.reshape(2))

    def test_tiny_negative_clamped(self):
        raw = np.array([1.0 + 5e-13, -5e-13])
        dist = _finalize_distribution(raw)
        assert dist[1] == 0.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-15)

    def test_bad_normalization_raises(self):
        with pytest.raises(NumericConsistencyError):
            _finalize_distribution(np.array([0.7, 0.2]))

    def test_moment_shapes_must_match_couplings(self):
        for V, m in ((np.eye(2), np.zeros(3)), (np.eye(3), np.zeros(2)), (np.eye(3), np.zeros((3, 1)))):
            with pytest.raises(ConfigurationError, match="^moment shapes do not match coupling count$"):
                distribution_from_moments(ChannelMoments(V, m, 0.0), [0.2] * 3, 1.0)


class TestMarginalize:
    def test_full_subset_is_identity(self, captable_3):
        p = captable_3.distributions[1]
        m = marginalize(p, (0, 1, 2))
        assert np.array_equal(m, p)

    def test_uniform_marginal(self):
        probs = np.full((2, 2, 2), 1.0 / 8.0)
        m = marginalize(probs, (1,))
        assert np.allclose(m, [0.5, 0.5])

    def test_no_signaling_outside_detector(self, captable_2):
        p0, p1 = (marginalize(p, (2,)) for p in captable_2.distributions)
        assert np.abs(p0 - p1).max() <= 1e-9

    def test_empty_subset_rejected(self, captable_3):
        p = captable_3.distributions[0]
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



def golden_section_reference(p0, p1, base, tol):
    """The prior search written on top of the public `mutual_information`,
    one call per prior, as `capacity` is specified."""
    a0, a1 = np.ravel(p0), np.ravel(p1)
    if np.array_equal(a0, a1):
        return 0.0, 0.5
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = mutual_information(c, a0, a1, base), mutual_information(d, a0, a1, base)
    width = math.inf
    while b - a < width and not b - a <= tol:
        width = b - a
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = mutual_information(c, a0, a1, base)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = mutual_information(d, a0, a1, base)
    q_star = 0.5 * (a + b)
    c = mutual_information(q_star, a0, a1, base)
    return (0.0, 0.5) if c <= 0.0 else (c, q_star)


class TestCapacitySearchBits:
    """`capacity` settles the base, the shapes and the nonzero cells once per
    search; every capacity and prior keeps the bits of the search above."""

    @pytest.mark.parametrize("cells", (2, 4, 8))
    @pytest.mark.parametrize("zeros", (0, 1), ids=("dense", "zero-cells"))
    def test_matches_reference_search(self, cells, zeros):
        rng = np.random.default_rng(100 * cells + zeros)
        for _ in range(20):
            p0, p1 = rng.random(cells), rng.random(cells)
            if zeros:  # a cell empty in each conditional, and one empty in both
                p0[0] = p1[-1] = 0.0
                if cells > 2:
                    p0[1] = p1[1] = 0.0
            p0, p1 = p0 / p0.sum(), p1 / p1.sum()
            shape = (2,) * int(math.log2(cells))
            for base, tol in ((2, 1e-10), ("e", 1e-10), (2, math.nan)):
                got = capacity(p0.reshape(shape), p1.reshape(shape), base, tol)
                want = golden_section_reference(p0, p1, base, tol)
                assert [x.hex() for x in got] == [x.hex() for x in want], (p0, p1, base, tol)

    def test_invalid_inputs(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ConfigurationError, match="different outcome spaces"):
            capacity(p, np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ConfigurationError, match="log base"):
            capacity(p, np.array([0.2, 0.8]), base=10)


# float.hex of table1's capacity table and moments (`capacity_table` with the
# default tolerances); a change to the pairing or capacity path that is meant
# to keep the outputs must keep these bits
TABLE1_BITS = {
    3: {
        "capacities": ["0x1.71983d1003e2bp-53", "0x1.1c71713f5ca9cp-15", "0x0.0p+0",
                       "0x1.21833d009ac05p-15", "0x1.39670ff9d995cp-15", "0x0.0p+0",
                       "0x1.3e818cf24ab56p-15"],
        "priors": ["0x1.06e7be5e88640p-1", "0x1.ffffd7ac3e8e8p-2", "0x1.0000000000000p-1",
                   "0x1.000008dedee42p-1", "0x1.fffffefe83aa2p-2", "0x1.0000000000000p-1",
                   "0x1.0000086ebf430p-1"],
        "noise_cov": ["0x1.4fec56d5cfaabp-1", "0x1.db1e71a4e6413p+0", "0x1.c5ec55b2b1128p-1",
                      "0x1.db1e71a4e6413p+0", "0x1.f19d1f1b19789p+5", "0x1.0dd2193461befp+5",
                      "0x1.c5ec55b2b1128p-1", "0x1.0dd2193461befp+5", "0x1.23d37edf9e8e6p+6"],
        "signal_im": ["0x1.8d84800000000p-50", "-0x1.08320425ef7b4p+2", "0x1.2db45c0000000p-45"],
        "error_bound": "0x1.8c3dda6d3f356p-36",
    },
    2: {
        "capacities": ["0x1.b6a58f0c927a3p-10", "0x1.1e070519798acp-7", "0x0.0p+0",
                       "0x1.4eeefa8b01dc1p-7", "0x1.cbdc22b7a7493p-7", "0x1.b835645c825d9p-10",
                       "0x1.fbc73383b04d2p-7"],
        "priors": ["0x1.08c9044d98bc4p-1", "0x1.006871e438b99p-1", "0x1.0000000000000p-1",
                   "0x1.015336e442a01p-1", "0x1.00ff9079f97b5p-1", "0x1.08d9e08a48013p-1",
                   "0x1.01c3703fbccb1p-1"],
        "noise_cov": ["0x1.f1a9fbe76c8c9p-1", "0x1.3005a4e885ca9p+1", "0x1.279aa4d4f2184p+0",
                      "0x1.3005a4e885ca9p+1", "0x1.778b2f0c8c9d1p+4", "0x1.73be102316d45p+3",
                      "0x1.279aa4d4f2184p+0", "0x1.73be102316d45p+3", "0x1.c6f47baf0919ap+3"],
        "signal_im": ["-0x1.7dca957286933p-2", "-0x1.43767eb61b1bcp+1", "-0x1.64f8000000000p-52"],
        "error_bound": "0x1.c97ce6fe1f529p-42",
    },
}


@pytest.mark.parametrize("dim", (3, 2))
def test_table1_bits_are_pinned(dim, request):
    table = request.getfixturevalue(f"captable_{dim}")
    moments = request.getfixturevalue(f"moments_{dim}")
    want = TABLE1_BITS[dim]
    labels = ["B1", "B2", "B3", "B1B2", "B2B3", "B1B3", "B1B2B3"]
    assert list(table.capacities) == list(table.priors) == labels
    assert [table.capacities[k].hex() for k in labels] == want["capacities"]
    assert [table.priors[k].hex() for k in labels] == want["priors"]
    assert [x.hex() for x in moments.noise_cov.ravel().tolist()] == want["noise_cov"]
    assert [x.hex() for x in moments.signal_im.tolist()] == want["signal_im"]
    assert moments.error_bound.hex() == table.moments.error_bound.hex() == want["error_bound"]


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
        monkeypatch.setattr(field_kernel, "pairing_detail", lambda *a: calls.append(a))
        with pytest.raises(ConfigurationError, match="^9 receivers: the 2\\^9 x 3\\^9 sign table"):
            make_channel_scenario(table1_3.alice, table1_3.bobs * 3, 3)
        assert calls == []
        with pytest.raises(ConfigurationError, match="^9 receivers"):
            distribution_from_moments(ChannelMoments(np.eye(9), np.zeros(9), 0.0), [0.2] * 9, 1.0)
        # eight receivers fit the budget
        p = distribution_from_moments(ChannelMoments(np.eye(8), np.zeros(8), 0.0), [0.2] * 8, 1.0)
        assert p.shape == (2,) * 8

    @pytest.mark.parametrize("party", ("receiver", "sender"))
    def test_dimension_mismatch_rejected(self, table1_3, table1_2, party):
        alice, bobs = (table1_3.alice, table1_2.bobs) if party == "receiver" else (table1_2.alice, table1_3.bobs)
        with pytest.raises(ConfigurationError, match=f"^{party} smearing dimension mismatch"):
            make_channel_scenario(alice, bobs, 3)

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
