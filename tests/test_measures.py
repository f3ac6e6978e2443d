import math
import warnings

import numpy as np
import pytest

from horizonrisk import (BrownianLattice, DomainError,
                         HorizonSchedule, LossSpec, QParams, RandomVariable,
                         RangeError, SpecificationError, StepFunction,
                         TimeGridError, UtilityFn, certainty_equivalent,
                         discounted_wrap, entropic, expected_loss, h_entropic,
                         hq_entropic_losses, longevity_index,
                         monotone_in_q_check, q_entropic_losses)

from conftest import random_rv, random_tree

QUARTER_TIMES = [0.0, 0.25, 0.5, 0.75, 1.0]


class TestStepFunction:
    def test_evaluation_and_integral(self):
        f = StepFunction((0.0, 1.0, 2.0), (0.1, 0.3, 0.0))
        assert f(0.0) == 0.1
        assert f(0.99) == 0.1
        assert f(1.0) == 0.3
        assert f(5.0) == 0.0
        assert f.integral(0.0, 2.5) == pytest.approx(0.1 + 0.3, abs=1e-15)
        assert f.integral(0.5, 1.5) == pytest.approx(0.05 + 0.15, abs=1e-15)
        assert f.integral(1.5, 0.5) == pytest.approx(-0.2, abs=1e-15)
        with pytest.raises(DomainError, match="t=-0.5 < 0"):
            f(-0.5)

    def test_integral_below_zero_rejected(self):
        # values[-1] must not stand in on [t, 0)
        f = StepFunction((0.0, 0.5), (1.0, 2.0))
        for t, u in [(-1.0, 1.0), (1.0, -1.0), (-2.0, -1.0)]:
            with pytest.raises(DomainError, match="integrated below 0"):
                f.integral(t, u)
        with pytest.raises(DomainError, match="integrated below 0"):
            HorizonSchedule(f).integral(-1.0, 1.0)

    def test_must_start_at_zero(self):
        with pytest.raises(SpecificationError):
            StepFunction((0.5,), (1.0,))

    @pytest.mark.parametrize("breakpoints, values, match", [
        ((0.0, 1.0), (0.1,), "must align"),
        ((0.0, 1.0, 0.5), (0.1, 0.2, 0.3), "strictly increasing"),
    ], ids=["misaligned", "unsorted"])
    def test_malformed_breakpoints_rejected(self, breakpoints, values, match):
        with pytest.raises(SpecificationError, match=match):
            StepFunction(breakpoints, values)

    @pytest.mark.parametrize("breakpoints, values", [
        ((0.0, np.nan), (0.1, 0.2)), ((0.0, np.inf), (0.1, 0.2)),
        ((np.nan,), (0.1,)), ((0.0, 1.0), (0.1, np.nan)),
        ((0.0,), (np.inf,)), ((0.0,), (-np.inf,)),
    ])
    def test_non_finite_input_rejected(self, breakpoints, values):
        with pytest.raises(SpecificationError):
            StepFunction(breakpoints, values)


class TestHorizonSchedule:
    def test_additivity(self):
        sched = HorizonSchedule(StepFunction((0.0, 0.4, 1.1), (0.2, 0.0, 0.5)))
        for (t, u, v) in [(0.0, 0.3, 0.9), (0.1, 0.5, 2.0), (0.4, 0.4, 1.2)]:
            assert sched.integral(t, u) + sched.integral(u, v) == \
                pytest.approx(sched.integral(t, v), abs=1e-14)
            assert sched.integral(t, u) >= 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(SpecificationError):
            HorizonSchedule(StepFunction((0.0,), (-0.1,)))

    def test_reversed_interval_rejected(self):
        with pytest.raises(TimeGridError):
            HorizonSchedule.constant(0.1).integral(1.0, 0.5)


class TestEntropic:
    def test_constant_position(self):
        tree = random_tree(0, depth=3)
        rho = entropic(tree.constant(2.5, 3), 0.0, 1.3)
        np.testing.assert_allclose(rho.values, -2.5, atol=1e-12)

    def test_two_atom_log_cosh(self, coin_position):
        rho = entropic(coin_position, 0.0, 1.0)
        assert rho.values[0] == pytest.approx(math.log(math.cosh(1.0)),
                                              abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_cash_additivity(self, seed):
        tree = random_tree(seed, depth=4)
        X = random_rv(tree, seed + 1)
        base = entropic(X, 0.25 if 0.25 in tree.times else tree.times[1], 2.0)
        shifted = entropic(X + 5.0, tree.times[1], 2.0)
        np.testing.assert_allclose(shifted.values, base.values - 5.0,
                                   atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_convexity_on_mixtures(self, seed):
        tree = random_tree(seed, depth=3)
        X, Y = random_rv(tree, seed + 7), random_rv(tree, seed + 8)
        rx, ry = entropic(X, 0.0), entropic(Y, 0.0)
        for lam in (0.25, 0.5, 0.75):
            mixed = entropic(lam * X + (1 - lam) * Y, 0.0)
            assert np.all(mixed.values
                          <= lam * rx.values + (1 - lam) * ry.values + 1e-9)

    def test_monotonicity(self):
        tree = random_tree(5, depth=3)
        X = random_rv(tree, 30)
        Y = X + X.apply(np.abs) + 0.1
        assert np.all(entropic(X, 0.0).values >= entropic(Y, 0.0).values)

    def test_invalid_b(self, coin_position):
        with pytest.raises(DomainError):
            entropic(coin_position, 0.0, 0.0)

    @pytest.mark.parametrize("b", [1.0, 2.0])
    def test_overflowing_exponent_rejected(self, b):
        lat = BrownianLattice(4, 1.0)
        with pytest.raises(DomainError, match="max\\(-b X\\)"):
            entropic(lat.constant(-800.0), 0.0, b)
        X = RandomVariable(lat, 4, [-np.inf, 0.5, 1.0, -0.3, 0.2])
        with pytest.raises(DomainError):
            entropic(X, 0.0, b)
        # the largest exponent that does not overflow
        assert entropic(lat.constant(-700.0 / b), 0.0, b).values[0] \
            == pytest.approx(700.0 / b, rel=1e-14)

    def test_underflowing_exponent_rejected_without_a_warning(self):
        # exp(-800) rounds to 0, whose log would give -inf for a true -800
        lat = BrownianLattice(4, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                entropic(lat.constant(800.0), 0.0, 1.0)
            assert entropic(lat.constant(700.0), 0.0, 1.0).values[0] \
                == pytest.approx(-700.0, rel=1e-14)


class TestHEntropic:
    def test_zero_rate_reduces_to_entropic(self, coin_position):
        sched = HorizonSchedule.zero()
        h = h_entropic(coin_position, 0.0, 1.0, 1.0, sched)
        np.testing.assert_allclose(h.values,
                                   entropic(coin_position, 0.0, 1.0).values)

    def test_constant_rate_on_zero_position(self):
        tree = ScenarioTree = random_tree(2, depth=2, times=[0.0, 0.5, 1.0])
        sched = HorizonSchedule.constant(0.1)
        h = h_entropic(tree.constant(0.0, 2), 0.0, 1.0, 1.0, sched)
        np.testing.assert_allclose(h.values, 0.1, atol=1e-14)

    def test_direct_exponential_formula_agrees(self):
        # (1/b) ln E[exp(-bX + b A)] computed longhand vs the implementation
        tree = random_tree(4, depth=3, times=[0.0, 0.4, 0.8, 1.2])
        X = random_rv(tree, 99)
        sched = HorizonSchedule(StepFunction((0.0, 0.6), (0.05, 0.35)))
        b = 1.7
        a_int = sched.integral(0.4, 1.2)
        inner = X.apply(lambda v: np.exp(-b * v + b * a_int)).condexp(1)
        direct = inner.apply(lambda v: np.log(v) / b)
        impl = h_entropic(X, 0.4, 1.2, b, sched)
        np.testing.assert_allclose(impl.values, direct.values, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_longevity_gap_is_exact_horizon_integral(self, seed):
        tree = random_tree(seed, depth=4, times=QUARTER_TIMES)
        X = random_rv(tree, seed, depth=2)  # measurable at u = 0.5
        sched = HorizonSchedule(StepFunction((0.0, 0.6), (0.2, 0.05)))
        rho = lambda Z, t, u: h_entropic(Z, t, u, 1.0, sched)
        gamma = longevity_index(rho, 0.25, 0.5, 1.0, X)
        np.testing.assert_allclose(gamma.values, sched.integral(0.5, 1.0),
                                   atol=1e-12)


class TestQEntropicLosses:
    def test_constant_position(self):
        tree = random_tree(1, depth=2)
        spec = LossSpec(beta=0.5, qparams=QParams(q=0.4, alpha_q=0.25))
        for c in (-2.0, -0.4, 1.0):
            rho = q_entropic_losses(tree.constant(c, 2), 0.0, spec)
            expected = max(-(c + 0.5), 0.0) + 0.25
            np.testing.assert_allclose(rho.values, expected, atol=1e-12)

    def test_two_atom_hand_value(self, coin_position):
        spec = LossSpec(beta=0.0, qparams=QParams(q=0.5, alpha_q=0.0))
        rho = q_entropic_losses(coin_position, 0.0, spec)
        # exp_q values (1, 2.25), mean 1.625, ln_q -> (sqrt(1.625)-1)/0.5
        assert rho.values[0] == pytest.approx(0.5495097567963922, abs=1e-12)

    def test_increasing_in_alpha(self, coin_position):
        previous = None
        for alpha in (-0.5, 0.0, 0.5, 1.0):
            spec = LossSpec(beta=0.0, qparams=QParams(q=0.5, alpha_q=alpha))
            val = q_entropic_losses(coin_position, 0.0, spec).values[0]
            if previous is not None:
                assert val > previous
            previous = val

    def test_constant_on_gains_region(self):
        tree = random_tree(2, depth=2)
        spec = LossSpec(beta=1.0, qparams=QParams(q=0.6, alpha_q=0.3))
        X = random_rv(tree, 3, low=-1.0, high=4.0)  # X >= -beta everywhere
        rho = q_entropic_losses(X, 0.0, spec)
        np.testing.assert_allclose(rho.values, 0.3, atol=1e-12)

    def test_value_floor_is_alpha(self):
        tree = random_tree(6, depth=3)
        spec = LossSpec(beta=0.0, qparams=QParams(q=0.5, alpha_q=0.8))
        X = random_rv(tree, 7)
        assert np.all(q_entropic_losses(X, 0.0, spec).values >= 0.8 - 1e-12)

    def test_q_to_one_matches_entropic_transform(self, coin_position):
        spec = LossSpec(beta=0.0, qparams=QParams(q=0.999, alpha_q=0.0))
        val = q_entropic_losses(coin_position, 0.0, spec).values[0]
        loss = coin_position.neg_part()
        ref = loss.apply(np.exp).condexp(0).apply(np.log).values[0]
        assert abs(val - ref) < 1e-2


class TestHqEntropicLosses:
    def test_constant_with_horizon_premium(self):
        tree = random_tree(0, depth=2, times=[0.0, 0.5, 1.0])
        spec = LossSpec(beta=0.0, qparams=QParams(q=0.37, alpha_q=0.0))
        sched = HorizonSchedule.constant(0.2)
        rho = hq_entropic_losses(tree.constant(-1.0, 2), 0.0, 1.0, spec, sched)
        np.testing.assert_allclose(rho.values, 1.2, atol=1e-12)

    def test_zero_rate_reduces_to_q_entropic(self, coin_position):
        spec = LossSpec(beta=0.0, qparams=QParams(q=0.5, alpha_q=0.0))
        h = hq_entropic_losses(coin_position, 0.0, 1.0, spec,
                               HorizonSchedule.zero())
        q = q_entropic_losses(coin_position, 0.0, spec)
        np.testing.assert_allclose(h.values, q.values)

    @pytest.mark.parametrize("seed", range(4))
    def test_longevity_gap_nonnegative(self, seed):
        tree = random_tree(seed, depth=4, times=QUARTER_TIMES)
        spec = LossSpec(beta=0.3, qparams=QParams(q=0.55, alpha_q=-0.2))
        sched = HorizonSchedule(StepFunction((0.0, 0.5), (0.15, 0.02)))
        X = random_rv(tree, seed + 40, depth=2)
        rho = lambda Z, t, u: hq_entropic_losses(Z, t, u, spec, sched)
        gamma = longevity_index(rho, 0.0, 0.5, 1.0, X)
        assert np.all(gamma.values >= -1e-12)

    def test_normalization_iff_alpha_and_horizon_vanish(self):
        tree = random_tree(3, depth=2, times=[0.0, 0.5, 1.0])
        zero = tree.constant(0.0, 2)
        sched = HorizonSchedule.constant(0.1)
        spec_a = LossSpec(beta=0.7, qparams=QParams(q=0.5, alpha_q=0.25))
        rho = hq_entropic_losses(zero, 0.0, 1.0, spec_a, sched)
        np.testing.assert_allclose(rho.values, 0.25 + 0.1, atol=1e-12)
        spec_b = LossSpec(beta=0.7, qparams=QParams(q=0.5, alpha_q=0.0))
        rho0 = hq_entropic_losses(zero, 0.0, 1.0, spec_b,
                                  HorizonSchedule.zero())
        np.testing.assert_allclose(rho0.values, 0.0, atol=1e-14)


class TestMonotoneInQ:
    def test_constant_position_all_equal(self):
        tree = random_tree(1, depth=2)
        X = tree.constant(1.0, 2)
        report = monotone_in_q_check(X, 0.0, [0.25, 0.5, 0.75, 1.0],
                                     [0.1] * 4)
        assert report.passed
        flat = np.array(report.values)
        np.testing.assert_allclose(flat, flat[0, 0], atol=1e-12)

    def test_two_atom_sequence_nondecreasing(self, coin_position):
        report = monotone_in_q_check(coin_position, 0.0,
                                     [0.25, 0.5, 0.75, 1.0], [0.0] * 4)
        assert report.passed
        seq = np.array(report.values)[:, 0]
        assert np.all(np.diff(seq) >= -1e-12)

    def test_small_q_approaches_conditional_expectation(self, coin_position):
        report = monotone_in_q_check(coin_position, 0.0, [0.01, 0.5],
                                     [0.2, 0.2])
        lower = np.array(report.lower_endpoint)
        first = np.array(report.values[0])
        np.testing.assert_allclose(first, lower, atol=5e-3)

    def test_unordered_alphas_rejected(self, coin_position):
        with pytest.raises(SpecificationError):
            monotone_in_q_check(coin_position, 0.0, [0.2, 0.5], [0.5, 0.0])

    def test_alpha_below_minus_one_rejected(self, coin_position):
        with pytest.raises(SpecificationError):
            monotone_in_q_check(coin_position, 0.0, [0.5, 0.9], [-1.5, 0.0])


class TestCertaintyEquivalent:
    def test_linear_utility_is_expected_loss(self):
        tree = random_tree(8, depth=3)
        X = random_rv(tree, 80)
        ce = certainty_equivalent(X, 0.0, UtilityFn.linear())
        np.testing.assert_allclose(ce.values, expected_loss(X, 0.0).values,
                                   atol=1e-12)

    def test_exponential_utility_matches_entropic(self):
        for seed in range(4):
            tree = random_tree(seed, depth=3)
            X = random_rv(tree, seed + 9)
            for b in (0.5, 1.0, 2.0):
                ce = certainty_equivalent(X, tree.times[1],
                                          UtilityFn.neg_exponential(b))
                ent = entropic(X, tree.times[1], b)
                np.testing.assert_allclose(ce.values, ent.values, atol=1e-10)

    def test_constant_position(self, two_atom):
        ce = certainty_equivalent(two_atom.constant(3.0, 1), 0.0,
                                  UtilityFn.neg_exponential(1.0))
        np.testing.assert_allclose(ce.values, -3.0, atol=1e-12)

    @pytest.mark.parametrize("b", [1.0, 2.0])
    def test_losses_beyond_the_exponential_clip_rejected(self, b):
        # neg_exponential clips -b x at 700, so a constant -800 would come
        # back as 700 / b; the largest loss allowed, 700 / b, comes back exact
        lattice = BrownianLattice(4)
        utility = UtilityFn.neg_exponential(b)
        with pytest.raises(DomainError, match="domain"):
            certainty_equivalent(lattice.constant(-800.0), 0.0, utility)
        largest = certainty_equivalent(lattice.constant(-700.0 / b), 0.0,
                                       utility)
        np.testing.assert_allclose(largest.values, 700.0 / b, rtol=1e-12)

    @pytest.mark.parametrize("x", [-800.0, 20.0, 40.0])
    def test_exp_bounded_domain_edges_rejected(self, x):
        # below -700 the clip binds; above 14 the inverse loses 1e-9, and
        # above about 37 U rounds to 1, where the inverse takes log(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="domain"):
                certainty_equivalent(BrownianLattice(4).constant(x), 0.0,
                                     UtilityFn.exp_bounded(1.0))

    def test_range_error_outside_inverse_domain(self, two_atom):
        bounded = UtilityFn(
            fn=lambda x: np.tanh(x), inverse=lambda v: np.arctanh(v),
            domain=(-3.0, 3.0), codomain=(-0.999, 0.999), name="tanh",
        )
        X = RandomVariable(two_atom, 1, [50.0, 60.0])
        with pytest.raises(RangeError):
            certainty_equivalent(X, 0.0, bounded)


class TestDiscountedWrap:
    def test_unit_discount_recovers_base_measure(self, coin_position):
        phi = lambda X, t: entropic(X, t, 1.0)
        D = coin_position.model.constant(1.0, 1)
        wrapped = discounted_wrap(phi, D, coin_position, 0.0, 1.0)
        np.testing.assert_allclose(wrapped.values,
                                   entropic(coin_position, 0.0, 1.0).values)

    def test_expected_loss_example(self, two_atom):
        phi = lambda X, t: expected_loss(X, t)
        D = two_atom.constant(0.9, 1)
        X = two_atom.constant(10.0, 1)
        v = discounted_wrap(phi, D, X, 0.0, 1.0).values[0]
        v_shift = discounted_wrap(phi, D, X + 1.0, 0.0, 1.0).values[0]
        assert v_shift == pytest.approx(-9.9)
        assert v_shift >= v - 1.0  # cash subadditive, strict slack here

    @pytest.mark.parametrize("seed", range(4))
    def test_cash_subadditivity_sampled(self, seed):
        tree = random_tree(seed, depth=3)
        rng = np.random.default_rng(seed + 1000)
        X = random_rv(tree, seed + 2)
        D = RandomVariable(tree, 3,
                           rng.uniform(0.05, 1.0, tree.num_nodes(3)))
        phi = lambda Z, t: entropic(Z, t, 1.0)
        base = discounted_wrap(phi, D, X, 0.0, tree.times[-1])
        for m in (0.1, 1.0, 4.0):
            shifted = discounted_wrap(phi, D, X + m, 0.0, tree.times[-1])
            assert np.all(shifted.values >= base.values - m - 1e-10)

    def test_adapted_process_discount(self, two_atom):
        # an adapted discount process is one random variable per depth; the
        # wrap takes its depth(u) layer and rejects any other
        D = (two_atom.constant(1.0, 0), RandomVariable(two_atom, 1, [0.8, 0.9]))
        X = RandomVariable(two_atom, 1, [2.0, 1.0])
        phi = lambda Z, t: expected_loss(Z, t)
        v = discounted_wrap(phi, D[1], X, 0.0, 1.0)
        assert v.values[0] == pytest.approx(-(0.5 * 1.6 + 0.5 * 0.9))
        with pytest.raises(TimeGridError,
                           match="discount must be measurable at depth"):
            discounted_wrap(phi, D[0], X, 0.0, 1.0)

    def test_position_before_the_horizon_rejected(self):
        tree = random_tree(4, depth=2)
        X = random_rv(tree, 5, depth=1)
        with pytest.raises(TimeGridError,
                           match="X must be measurable exactly at the horizon"):
            discounted_wrap(lambda Z, t: expected_loss(Z, t),
                            tree.constant(0.9, 2), X, 0.0, 1.0)

    def test_discount_outside_unit_interval_rejected(self, two_atom):
        X = RandomVariable(two_atom, 1, [1.0, 1.0])
        phi = lambda Z, t: expected_loss(Z, t)
        with pytest.raises(DomainError):
            discounted_wrap(phi, two_atom.constant(1.2, 1), X, 0.0, 1.0)
        with pytest.raises(DomainError):
            discounted_wrap(phi, two_atom.constant(0.0, 1), X, 0.0, 1.0)


class TestLongevityIndex:
    def test_entropic_family_has_zero_gap(self):
        tree = random_tree(4, depth=4, times=QUARTER_TIMES)
        X = random_rv(tree, 44, depth=2)
        rho = lambda Z, t, u: entropic(Z, t, 1.0)
        gamma = longevity_index(rho, 0.0, 0.5, 1.0, X)
        np.testing.assert_allclose(gamma.values, 0.0, atol=1e-14)

    def test_time_ordering_enforced(self, coin_position):
        rho = lambda Z, t, u: entropic(Z, t, 1.0)
        with pytest.raises(TimeGridError):
            longevity_index(rho, 0.5, 0.2, 1.0, coin_position)

    def test_position_off_depth_u_rejected(self):
        tree = random_tree(4, depth=4, times=QUARTER_TIMES)
        X = random_rv(tree, 44, depth=2)
        rho = lambda Z, t, u: entropic(Z, t, 1.0)
        with pytest.raises(TimeGridError,
                           match=r"X must be measurable exactly at depth\(u\)"):
            longevity_index(rho, 0.0, 0.75, 1.0, X)


class TestUtilityFn:
    def test_non_decreasing_enforced(self):
        with pytest.raises(SpecificationError):
            UtilityFn(fn=lambda x: -x, name="decreasing")

    def test_inverse_round_trip_enforced(self):
        with pytest.raises(SpecificationError):
            UtilityFn(fn=lambda x: x, inverse=lambda v: v + 0.01,
                      name="bad inverse")

    def test_missing_inverse_raises_on_use(self):
        u = UtilityFn(fn=lambda x: np.tanh(x), name="no inverse")
        with pytest.raises(SpecificationError):
            u.inverse_apply(0.0)

    def test_stock_utilities_round_trip(self):
        for u in (UtilityFn.linear(), UtilityFn.exp_bounded(0.7),
                  UtilityFn.neg_exponential(2.0), UtilityFn.softplus()):
            xs = np.linspace(-5.0, 5.0, 101)
            back = u.inverse_apply(u(xs))
            np.testing.assert_allclose(back, xs, atol=1e-9)


class TestDocumentedTwoAtomValues:
    def test_certainty_equivalent_matches_entropic_constant(self, coin_position):
        ce = certainty_equivalent(coin_position, 0.0,
                                  UtilityFn.neg_exponential(1.0))
        assert ce.values[0] == pytest.approx(0.4337808304830271, abs=1e-12)

    def test_flat_discount_gives_strictly_positive_subadditivity_slack(
            self, two_atom):
        phi = lambda Z, t: expected_loss(Z, t)
        D = two_atom.constant(0.9, 1)
        X = RandomVariable(two_atom, 1, [3.0, -1.0])
        base = discounted_wrap(phi, D, X, 0.0, 1.0).values[0]
        for m in (0.1, 1.0, 5.0):
            shifted = discounted_wrap(phi, D, X + m, 0.0, 1.0).values[0]
            assert shifted - (base - m) == pytest.approx(0.1 * m, abs=1e-12)


class TestNodeVaryingCashShifts:
    @pytest.mark.parametrize("seed", range(3))
    def test_entropic_translates_by_measurable_shifts(self, seed):
        # cash additivity with a genuinely F_t-measurable (node-varying) m
        tree = random_tree(seed, depth=3)
        X = random_rv(tree, seed + 400)
        m = random_rv(tree, seed + 500, depth=1, low=0.0, high=2.0)
        t = tree.times[1]
        shifted = entropic(X + m, t, 1.3)
        base = entropic(X, t, 1.3)
        np.testing.assert_allclose(shifted.values, (base - m).values,
                                   atol=1e-10)

    def test_h_var_translates_by_measurable_shifts(self):
        from horizonrisk import h_var
        tree = random_tree(9, depth=3)
        X = random_rv(tree, 900)
        m = random_rv(tree, 901, depth=1, low=0.0, high=3.0)
        t = tree.times[1]
        shifted = h_var(X + m, t, 0.2)
        base = h_var(X, t, 0.2)
        np.testing.assert_allclose(shifted.values, (base - m).values,
                                   atol=1e-12)
