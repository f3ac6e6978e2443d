import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonrisk import (AggregatorFn, BrownianLattice, DomainError,
                         HorizonSchedule, LossSpec, QParams, RandomVariable,
                         RiskSentinel, ScenarioTree, ShortfallSpec,
                         SpecificationError, StepFunction, TargetSchedule,
                         UtilityFn, acceptance_member, ce_equivalence_check,
                         certainty_equivalent, dynamic_shortfall, entropic,
                         h_entropic, h_var, hq_entropic_losses,
                         hq_shortfall_spec, quadratic_transform_solve,
                         rho_bar, risk_map_R, static_shortfall)
from horizonrisk import shortfall
from horizonrisk.shortfall import (_BISECT_TOL, _BRACKET_CAP, _bracket_start,
                                   _least_m, _problem, _smallest_m)

from conftest import random_rv, random_tree


def linear_spec(B=0.0):
    return ShortfallSpec.classic(UtilityFn.linear(), B)


def entropic_spec(B=0.0):
    return ShortfallSpec.classic(UtilityFn.exp_bounded(1.0), B)


def anti_cash_spec():
    """A constraint that falls in m beyond m = 5, outside the aggregator's
    construction grid: the bracketing probes cross it, and the shortfall
    must refuse it."""
    bad = AggregatorFn(fn=lambda y, m: y + np.minimum(m, 10.0 - m),
                       name="anti-cash")
    return ShortfallSpec(UtilityFn.linear(), bad, TargetSchedule.constant(4.0))


class TestStaticShortfall:
    def test_linear_inversion_two_atoms(self, two_atom):
        X = RandomVariable(two_atom, 1, [2.0, 0.0])
        assert static_shortfall(X, linear_spec()) == pytest.approx(-1.0,
                                                                   abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_exponential_utility_recovers_entropic(self, seed):
        tree = random_tree(seed, depth=3)
        X = random_rv(tree, seed + 3)
        value = static_shortfall(X, entropic_spec())
        ref = entropic(X, 0.0, 1.0).values[0]
        assert value == pytest.approx(ref, abs=1e-8)

    def test_infeasible_target_gives_plus_infinity(self, coin_position):
        spec = entropic_spec(B=2.0)  # sup U = 1 < 2
        assert static_shortfall(coin_position, spec) is RiskSentinel.PLUS_INF

    def test_always_feasible_gives_minus_infinity(self, two_atom):
        # hq boundary: alpha at the domain floor and no losses beyond the
        # buffer make the constraint hold for every cash amount
        qp = QParams(q=0.5, alpha_q=-2.0)
        spec = hq_shortfall_spec(qp, beta=0.0,
                                 schedule=HorizonSchedule.zero())
        X = two_atom.constant(1.0, 1)
        assert static_shortfall(X, spec) is RiskSentinel.MINUS_INF

    @pytest.mark.parametrize("sentinel", list(RiskSentinel))
    def test_float_reads_a_sentinel(self, sentinel):
        assert float(sentinel) == sentinel.as_float()
        assert math.isinf(float(sentinel))

    def test_non_monotone_constraint_detected(self, coin_position):
        with pytest.raises(SpecificationError):
            static_shortfall(coin_position, anti_cash_spec())

    @given(p=st.floats(min_value=0.05, max_value=0.95),
           x1=st.floats(min_value=-5.0, max_value=5.0),
           x2=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=60, derandomize=True)
    def test_linear_spec_is_negated_mean(self, p, x1, x2):
        tree = ScenarioTree.terminal_atoms([p, 1.0 - p])
        X = RandomVariable(tree, 1, [x1, x2])
        value = static_shortfall(X, linear_spec())
        assert value == pytest.approx(-(p * x1 + (1 - p) * x2), abs=1e-8)


INFINITE_POSITION_ROUTES = {
    "static": static_shortfall,
    "dynamic": lambda X, spec: dynamic_shortfall(X, 0.5, spec),
    "rho_bar": lambda X, spec: rho_bar(0.0, X, spec),
}


class TestInfinitePositions:
    """A position with an infinite value has no finite bisection bracket; it
    is rejected where it enters, not solved into NaN."""

    @pytest.mark.parametrize("route", sorted(INFINITE_POSITION_ROUTES))
    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("hq", [False, True])
    @pytest.mark.parametrize("inf", [-math.inf, math.inf])
    def test_rejected_on_every_route(self, route, lattice, hq, inf):
        model = BrownianLattice(4, 1.0) if lattice else random_tree(2, depth=2)
        values = np.linspace(-0.3, 1.0, model.num_nodes(model.terminal_depth))
        values[0] = inf
        X = RandomVariable(model, model.terminal_depth, values)
        spec = (hq_shortfall_spec(QParams(q=0.7, alpha_q=0.0), 0.0,
                                  HorizonSchedule.constant(0.2))
                if hq else entropic_spec())
        with pytest.raises(DomainError, match="finite position"):
            INFINITE_POSITION_ROUTES[route](X, spec)


class TestDynamicShortfall:
    def test_t_zero_reduces_to_static(self):
        tree = random_tree(2, depth=3)
        X = random_rv(tree, 21)
        spec = entropic_spec()
        dyn = dynamic_shortfall(X, 0.0, spec)
        assert dyn.values[0] == pytest.approx(static_shortfall(X, spec),
                                              abs=1e-9)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_static_is_the_root_of_the_nodewise_solve(self, data):
        """static_shortfall(X, spec, u) is exactly the depth-0 value of
        dynamic_shortfall(X, 0, spec, u), +-inf read as the sentinels, on
        random trees and N <= 16 lattices for the stock specs."""
        if data.draw(st.booleans()):
            model = random_tree(data.draw(st.integers(0, 2**16)),
                                depth=data.draw(st.integers(1, 3)))
        else:
            model = BrownianLattice(data.draw(st.integers(1, 16)), 1.0)
        dx = data.draw(st.integers(1, model.terminal_depth))
        u = data.draw(st.sampled_from([None, *model.times[dx:]]))
        X = random_rv(model, data.draw(st.integers(0, 2**16)), depth=dx)
        qp = QParams(q=data.draw(st.floats(0.3, 1.0)),
                     alpha_q=data.draw(st.floats(0.0, 0.5)))
        sched = HorizonSchedule.constant(data.draw(st.floats(0.0, 0.4)))
        spec = data.draw(st.sampled_from([
            entropic_spec(), linear_spec(), entropic_spec(B=2.0),
            ShortfallSpec(UtilityFn.exp_bounded(0.8),
                          AggregatorFn.scaled_additive(0.7),
                          TargetSchedule.constant(0.1)),
            ShortfallSpec(UtilityFn.linear(), AggregatorFn.exponential(0.5),
                          TargetSchedule.constant(0.2)),
            ShortfallSpec(UtilityFn.linear(), AggregatorFn.exponential(0.5),
                          TargetSchedule.constant(1.5)),
            hq_shortfall_spec(qp, data.draw(st.floats(0.0, 1.0)), sched),
            # alpha_q at its floor and no losses beyond the buffer: -inf
            hq_shortfall_spec(QParams(q=0.5, alpha_q=-2.0), beta=3.0,
                              schedule=HorizonSchedule.zero()),
        ]))
        static = static_shortfall(X, spec, u)
        root = dynamic_shortfall(X, 0.0, spec, u).values[0]
        if math.isinf(root):
            assert static is (RiskSentinel.PLUS_INF if root > 0
                              else RiskSentinel.MINUS_INF)
        else:
            assert isinstance(static, float) and static == root

    def test_constant_position_solves_utility_equation(self):
        tree = random_tree(3, depth=2)
        spec = ShortfallSpec.classic(UtilityFn.exp_bounded(1.0), 0.5)
        c = 0.8
        dyn = dynamic_shortfall(tree.constant(c, 2), 0.0, spec)
        # U(c + m) = B  =>  m = U^{-1}(B) - c
        expected = float(UtilityFn.exp_bounded(1.0).inverse_apply(0.5)) - c
        np.testing.assert_allclose(dyn.values, expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_h_entropic_shortfall_example(self, seed):
        # U_u(x) = 1 - exp(-x + int_0^u a), B_tu = 1 - exp(int_0^t a)
        sched = HorizonSchedule(StepFunction((0.0, 0.4), (0.3, 0.1)))
        tree = random_tree(seed, depth=3, times=[0.0, 0.4, 0.7, 1.0])
        X = random_rv(tree, seed + 11)

        def utility(u):
            a0u = sched.integral(0.0, u)
            return UtilityFn(
                fn=lambda x: 1.0 - np.exp(np.minimum(-x + a0u, 700.0)),
                name=f"h-entropic-u{u}",
            )

        targets = TargetSchedule(
            lambda t, u: 1.0 - math.exp(sched.integral(0.0, t)))
        spec = ShortfallSpec(utility, AggregatorFn.additive(), targets)
        for t in (0.0, 0.4):
            dyn = dynamic_shortfall(X, t, spec, u=1.0)
            ref = h_entropic(X, t, 1.0, 1.0, sched)
            np.testing.assert_allclose(dyn.values, ref.values, atol=1e-8)

    def test_mixed_sentinel_and_finite_nodes(self):
        # node 1's subtree has no losses beyond the buffer, so alpha_q = -2
        # meets the constraint at every cash level; node 2's has losses
        tree = ScenarioTree((0.0, 0.5, 1.0), [
            (0, 0, None, 1.0), (1, 1, 0, 0.4), (2, 1, 0, 0.6),
            (3, 2, 1, 0.5), (4, 2, 1, 0.5),
            (5, 2, 2, 0.2), (6, 2, 2, 0.3), (7, 2, 2, 0.5),
        ])
        spec = hq_shortfall_spec(QParams(q=0.5, alpha_q=-2.0), beta=0.0,
                                 schedule=HorizonSchedule.zero())
        values = [1.0, 0.5, -1.0, 0.3, -2.0]
        dyn = dynamic_shortfall(RandomVariable(tree, 2, values), 0.5, spec)
        subtree = ScenarioTree.terminal_atoms([0.2, 0.3, 0.5])
        alone = static_shortfall(RandomVariable(subtree, 1, values[2:]), spec)
        assert dyn.values[0] == -math.inf
        assert isinstance(alone, float)
        assert dyn.values[1] == pytest.approx(alone, abs=1e-12)

    def test_guard_names_the_failing_node(self):
        # cash helps gains without end and losses only up to m = 5, past
        # the aggregator's construction grid: the constraint rises in m
        # below node 0 (gains only) and falls beyond m = 5 below node 1
        # (losses only), where the bracketing probes reach
        signed = AggregatorFn(
            fn=lambda y, m: y + np.where(y > 0.0, m, np.minimum(m, 10.0 - m)),
            name="signed-cash")
        spec = ShortfallSpec(UtilityFn.linear(), signed,
                             TargetSchedule.constant(4.0))
        tree = ScenarioTree((0.0, 0.5, 1.0), [
            (0, 0, None, 1.0), (1, 1, 0, 0.5), (2, 1, 0, 0.5),
            (3, 2, 1, 0.5), (4, 2, 1, 0.5), (5, 2, 2, 0.5), (6, 2, 2, 0.5),
        ])
        X = RandomVariable(tree, 2, [1.0, 2.0, -1.0, -2.0])
        with pytest.raises(SpecificationError,
                           match=r"^node 1 at depth 1: .* drops"):
            dynamic_shortfall(X, 0.5, spec)

    def test_nodewise_conditioning_on_subtrees(self):
        tree = random_tree(7, depth=3)
        X = random_rv(tree, 70)
        spec = entropic_spec()
        dyn = dynamic_shortfall(X, tree.times[1], spec)
        ref = entropic(X, tree.times[1], 1.0)
        np.testing.assert_allclose(dyn.values, ref.values, atol=1e-8)


class TestHVar:
    def test_hand_example(self):
        tree = ScenarioTree.terminal_atoms([0.95, 0.05])
        X = RandomVariable(tree, 1, [1.0, -5.0])
        v = h_var(X, 0.0, 0.05)
        assert v.values[0] == -1.0  # exact, by enumeration

    def test_constants(self):
        tree = random_tree(4, depth=2)
        for alpha in (0.01, 0.2, 0.9):
            v = h_var(tree.constant(2.3, 2), 0.0, alpha)
            np.testing.assert_allclose(v.values, -2.3, atol=0.0)

    def test_cash_translation_is_exact(self):
        tree = random_tree(5, depth=3)
        X = random_rv(tree, 50)
        for m in (0.1, 1.0, 5.0):
            shifted = h_var(X + m, 0.0, 0.1)
            base = h_var(X, 0.0, 0.1)
            np.testing.assert_allclose(shifted.values, base.values - m,
                                       atol=1e-12)

    def test_longevity_from_decreasing_alpha(self):
        tree = random_tree(6, depth=3)
        alpha_of_u = {tree.times[2]: 0.3, tree.times[3]: 0.1}
        for seed in range(5):
            X = random_rv(tree, seed, depth=2)
            rho_u = h_var(X, 0.0, alpha_of_u[tree.times[2]])
            rho_v = h_var(X, 0.0, alpha_of_u[tree.times[3]])
            assert np.all(rho_v.values - rho_u.values >= -1e-12)

    def test_alpha_domain(self, coin_position):
        with pytest.raises(DomainError):
            h_var(coin_position, 0.0, 1.0)


class TestCeEquivalence:
    def test_induced_aggregator_has_zero_residual(self):
        utilde = UtilityFn.neg_exponential(1.0)
        f = AggregatorFn.ce_induced(UtilityFn.linear(), utilde, target=0.3)
        report = ce_equivalence_check(UtilityFn.linear(), f, 0.3, utilde)
        assert report.equivalent
        assert report.max_residual < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_triple_agreement_shortfall_ce_entropic(self, seed):
        utilde = UtilityFn.neg_exponential(1.0)
        f = AggregatorFn.ce_induced(UtilityFn.linear(), utilde, target=0.0)
        spec = ShortfallSpec(UtilityFn.linear(), f,
                             TargetSchedule.constant(0.0))
        tree = random_tree(seed, depth=3)
        X = random_rv(tree, seed + 5)
        shortfall_v = dynamic_shortfall(X, 0.0, spec)
        ce_v = certainty_equivalent(X, 0.0, utilde)
        ent_v = entropic(X, 0.0, 1.0)
        np.testing.assert_allclose(shortfall_v.values, ce_v.values, atol=1e-7)
        np.testing.assert_allclose(ce_v.values, ent_v.values, atol=1e-10)

    def test_hq_aggregator_is_not_a_certainty_equivalent(self):
        qp = QParams(q=0.5, alpha_q=0.0)
        f = AggregatorFn.hq(qp, beta=0.0, horizon_term=0.0)
        battery = [UtilityFn.linear(), UtilityFn.neg_exponential(1.0),
                   UtilityFn.exp_bounded(1.0), UtilityFn.softplus()]
        for utilde in battery:
            report = ce_equivalence_check(UtilityFn.linear(), f, 0.0, utilde)
            assert not report.equivalent
            assert report.max_residual > 1e-3


class TestHqShortfallSpec:
    def test_constant_with_horizon_term(self):
        tree = ScenarioTree.terminal_atoms([1.0])
        spec = hq_shortfall_spec(QParams(q=0.5, alpha_q=0.0), beta=0.0,
                                 schedule=HorizonSchedule.constant(0.2))
        X = tree.constant(-1.0, 1)
        assert static_shortfall(X, spec) == pytest.approx(1.2, abs=1e-8)

    def test_two_atom_matches_q_entropic(self, coin_position):
        spec = hq_shortfall_spec(QParams(q=0.5, alpha_q=0.0), beta=0.0,
                                 schedule=HorizonSchedule.zero())
        v = static_shortfall(coin_position, spec)
        assert v == pytest.approx(0.5495097567963922, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_reproduces_hq_entropic_nodewise(self, seed):
        tree = random_tree(seed, depth=3, times=[0.0, 0.25, 0.5, 1.0])
        qp = QParams(q=0.35 + 0.1 * (seed % 3), alpha_q=0.1 * (seed % 2))
        sched = HorizonSchedule(StepFunction((0.0, 0.3), (0.2, 0.05)))
        spec = hq_shortfall_spec(qp, beta=0.25, schedule=sched)
        loss_spec = LossSpec(beta=0.25, qparams=qp)
        X = random_rv(tree, seed + 31)
        for t in (0.0, 0.25):
            dyn = dynamic_shortfall(X, t, spec, u=1.0)
            ref = hq_entropic_losses(X, t, 1.0, loss_spec, sched)
            np.testing.assert_allclose(dyn.values, ref.values, atol=1e-7)

    @given(q=st.floats(min_value=0.5, max_value=0.95),
           alpha=st.floats(min_value=-0.5, max_value=0.5),
           beta=st.floats(min_value=0.0, max_value=1.0),
           rate=st.floats(min_value=0.0, max_value=0.4),
           n=st.sampled_from([8, 16, 32]), mid=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_lattice_routes_agree(self, q, alpha, beta, rate, n, mid, seed):
        # closed form = generalized-log transform of the loss terminal
        # = h-generalized shortfall, nodewise on a lattice
        lat = BrownianLattice(n, 1.0)
        qp = QParams(q=q, alpha_q=alpha)
        sched = HorizonSchedule.constant(rate)
        X = random_rv(lat, seed)
        t = 0.5 if mid else 0.0
        closed = hq_entropic_losses(X, t, 1.0, LossSpec(beta=beta, qparams=qp),
                                    sched)
        terminal = (X + beta).neg_part() + alpha
        transform = quadratic_transform_solve(lat, q, sched, terminal, t)
        np.testing.assert_allclose(transform.values, closed.values,
                                   rtol=0, atol=1e-12)
        shortfall = dynamic_shortfall(X, t, hq_shortfall_spec(qp, beta, sched),
                                      u=1.0)
        np.testing.assert_allclose(shortfall.values, closed.values,
                                   rtol=0, atol=1e-7)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_tree_routes_agree(self, data):
        """The closed form and the h-generalized shortfall agree at every
        depth(t) on random depth-3 trees, for any X depth and horizon u."""
        tree = random_tree(data.draw(st.integers(0, 2**16)), depth=3)
        dx = data.draw(st.integers(1, 3))
        u = tree.times[data.draw(st.integers(dx, 3))]
        X = random_rv(tree, data.draw(st.integers(0, 2**16)), depth=dx)
        qp = QParams(q=data.draw(st.floats(0.3, 1.0)),
                     alpha_q=data.draw(st.floats(0.0, 0.5)))
        beta = data.draw(st.floats(0.0, 1.0))
        sched = HorizonSchedule.constant(data.draw(st.floats(0.0, 0.4)))
        spec = hq_shortfall_spec(qp, beta, sched)
        for t in tree.times[:dx + 1]:
            closed = hq_entropic_losses(X, t, u, LossSpec(beta, qp), sched)
            shortfall = dynamic_shortfall(X, t, spec, u)
            np.testing.assert_allclose(shortfall.values, closed.values,
                                       rtol=0, atol=1e-7)

    def test_aggregate_minus_target_non_increasing_in_horizon(self):
        qp = QParams(q=0.5, alpha_q=0.1)
        sched = HorizonSchedule.constant(0.3)
        spec = hq_shortfall_spec(qp, beta=0.2, schedule=sched)
        ys = np.linspace(-3.0, 3.0, 21)
        ms = np.linspace(-1.5, 1.5, 7)
        grid_y, grid_m = np.meshgrid(ys, ms, indexing="ij")
        previous = None
        for u in (0.25, 0.5, 1.0):
            f = spec.aggregator_at(0.0, u)
            vals = spec.utility_at(u)(f(grid_y, grid_m)) - spec.targets(0.0, u)
            if previous is not None:
                assert np.all(vals <= previous + 1e-12)
            previous = vals


class TestAcceptanceSets:
    def test_membership_brackets_the_shortfall(self):
        tree = random_tree(9, depth=2)
        X = random_rv(tree, 90)
        spec = entropic_spec()
        rho = dynamic_shortfall(X, 0.0, spec)
        above = acceptance_member(X, rho.values[0] + 0.01, spec, 0.0)
        below = acceptance_member(X, rho.values[0] - 0.01, spec, 0.0)
        assert above.values[0] == 1.0
        assert below.values[0] == 0.0

    def test_family_is_nested_in_cash_level(self):
        tree = random_tree(10, depth=2)
        spec = entropic_spec()
        for seed in range(5):
            X = random_rv(tree, seed + 200)
            members = [acceptance_member(X, m, spec, 0.0).values[0]
                       for m in (-1.0, 0.0, 1.0, 2.0)]
            assert all(a <= b for a, b in zip(members, members[1:]))

    def test_scan_consistency_with_shortfall(self):
        tree = random_tree(11, depth=2)
        X = random_rv(tree, 110)
        spec = entropic_spec()
        rho = static_shortfall(X, spec)
        grid = np.linspace(rho - 0.5, rho + 0.5, 201)
        flags = [acceptance_member(X, m, spec, 0.0).values[0] for m in grid]
        first_member = grid[np.argmax(flags)]
        assert abs(first_member - rho) <= (grid[1] - grid[0]) + 1e-9

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf,
                                   [0.1, math.nan, 0.2]])
    def test_non_finite_cash_level_rejected(self, m):
        # a NaN level used to read as "not accepted" at its node
        lat = BrownianLattice(4, 1.0)
        X = RandomVariable(lat, 4, np.linspace(-1.0, 1.0, 5))
        with pytest.raises(DomainError, match="cash level m must be finite"):
            acceptance_member(X, m, entropic_spec(), 0.5)


class TestStructuralProperties:
    def test_quasi_convexity_sampled(self):
        tree = random_tree(12, depth=2)
        spec = ShortfallSpec(UtilityFn.exp_bounded(1.0),
                             AggregatorFn.exponential(0.5),
                             TargetSchedule.constant(0.1))
        assert spec.concavity_slack(0.0, 1.0) <= 1e-9
        rng = np.random.default_rng(4)
        for _ in range(6):
            X = RandomVariable(tree, 2, rng.uniform(-2, 2, tree.num_nodes(2)))
            Y = RandomVariable(tree, 2, rng.uniform(-2, 2, tree.num_nodes(2)))
            rx = static_shortfall(X, spec)
            ry = static_shortfall(Y, spec)
            for lam in (0.25, 0.5, 0.75):
                mix = static_shortfall(lam * X + (1 - lam) * Y, spec)
                assert mix <= max(rx, ry) + 1e-8

    def test_convexity_for_jointly_concave_composition(self):
        tree = random_tree(13, depth=2)
        spec = entropic_spec()  # U(y + m) concave in (y, m)
        rng = np.random.default_rng(5)
        for _ in range(6):
            X = RandomVariable(tree, 2, rng.uniform(-2, 2, tree.num_nodes(2)))
            Y = RandomVariable(tree, 2, rng.uniform(-2, 2, tree.num_nodes(2)))
            rx = static_shortfall(X, spec)
            ry = static_shortfall(Y, spec)
            for lam in (0.25, 0.5, 0.75):
                mix = static_shortfall(lam * X + (1 - lam) * Y, spec)
                assert mix <= lam * rx + (1 - lam) * ry + 1e-8

    def test_cash_subadditivity_of_flagged_aggregators(self):
        tree = random_tree(14, depth=2)
        rng = np.random.default_rng(6)
        exp_spec = ShortfallSpec(UtilityFn.linear(),
                                 AggregatorFn.exponential(0.4),
                                 TargetSchedule.constant(0.2))
        add_spec = entropic_spec()
        for _ in range(5):
            X = RandomVariable(tree, 2, rng.uniform(-2, 2, tree.num_nodes(2)))
            for m in (0.1, 1.0, 3.0):
                base = static_shortfall(X, exp_spec)
                shifted = static_shortfall(X + m, exp_spec)
                assert shifted >= base - m - 1e-8
                # the additive aggregator is exactly cash additive
                b2 = static_shortfall(X, add_spec)
                s2 = static_shortfall(X + m, add_spec)
                assert s2 == pytest.approx(b2 - m, abs=1e-8)

    def test_longevity_from_non_increasing_aggregate(self):
        # U_u(x) = x - 0.2 u is non-increasing in u: gamma >= 0
        tree = random_tree(15, depth=3, times=[0.0, 0.25, 0.5, 1.0])
        spec = ShortfallSpec(
            lambda u: UtilityFn(fn=lambda x, _u=u: x - 0.2 * _u,
                                inverse=lambda v, _u=u: v + 0.2 * _u,
                                name=f"drift{u}"),
            AggregatorFn.additive(), TargetSchedule.constant(0.0),
        )
        for seed in range(5):
            X = random_rv(tree, seed + 300, depth=2)
            rho_u = dynamic_shortfall(X, 0.0, spec, u=0.5)
            rho_v = dynamic_shortfall(X, 0.0, spec, u=1.0)
            assert np.all(rho_v.values - rho_u.values >= -1e-8)


class TestAggregatorValidation:
    @pytest.mark.parametrize("fn, arg", [
        (lambda y, m: -y + m, "y"),
        (lambda y, m: y - m, "m"),
    ], ids=["decreasing_y", "decreasing_m"])
    def test_monotone_violation_rejected(self, fn, arg):
        with pytest.raises(SpecificationError,
                           match=f"^aggregator 'bad' decreases in {arg} "):
            AggregatorFn(fn=fn, name="bad")

    def test_csa_flag_violation_rejected(self):
        # f(y, m) = 2y + m transfers cash worse than position: not csa
        with pytest.raises(SpecificationError):
            AggregatorFn(fn=lambda y, m: 2.0 * y + m, csa=True,
                         name="leveraged")

    def test_scaled_additive_requires_unit_interval(self):
        with pytest.raises(DomainError):
            AggregatorFn.scaled_additive(1.5)

    def test_exponential_requires_open_unit_interval(self):
        with pytest.raises(DomainError):
            AggregatorFn.exponential(1.0)


class TestLatticeModels:
    def test_dynamic_shortfall_on_lattice_matches_entropic(self):
        from horizonrisk import BrownianLattice
        lat = BrownianLattice(8, 1.0)
        X = RandomVariable(lat, 8, np.tanh(lat.brownian(8)))
        spec = entropic_spec()
        for t in (0.0, 0.5):
            dyn = dynamic_shortfall(X, t, spec)
            ref = entropic(X, t, 1.0)
            np.testing.assert_allclose(dyn.values, ref.values, atol=1e-8)

    def test_h_var_on_lattice(self):
        from horizonrisk import BrownianLattice
        lat = BrownianLattice(6, 1.0)
        X = lat.constant(1.7, 6)
        np.testing.assert_allclose(h_var(X, 0.5, 0.2).values, -1.7, atol=0.0)

    def test_lattice_conditional_matrix_rows_are_distributions(self):
        from horizonrisk import BrownianLattice
        lat = BrownianLattice(8, 1.0)
        cond = lat.cond_matrix(3, 8)
        np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-12)
        assert cond.shape == (4, 9)

    def test_node_tagged_specification_error(self):
        from horizonrisk import BrownianLattice
        lat = BrownianLattice(4, 1.0)
        X = RandomVariable(lat, 4, np.linspace(-1, 1, 5))
        with pytest.raises(SpecificationError, match="node 0"):
            dynamic_shortfall(X, 0.0, anti_cash_spec())


def scalar_least_m(met, start):
    """One row's bracket-and-bisect, written out: the reference of
    :func:`_least_m`."""
    cap = 2.0 * _BRACKET_CAP
    hi = start
    while not met(hi):
        if hi >= cap:
            return math.inf
        hi = min(2.0 * hi, cap)
    lo = -start
    while met(lo):
        if -lo >= cap:
            return -math.inf
        lo = -min(-2.0 * lo, cap)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if met(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestCashSearch:
    @pytest.mark.parametrize("target", [1.5e6, 3e6])
    def test_every_route_probes_up_to_twice_the_cap(self, two_atom, target):
        # with no inverse and X = 0 the first edge is 1; the root 1.5e6 lies
        # between 2^20, where the shortfall used to stop with PLUS_INF, and
        # the last edge 2^21; 3e6 lies beyond it
        spec = ShortfallSpec.classic(UtilityFn(fn=lambda x: x), target)
        X = two_atom.constant(0.0, 1)
        routes = [static_shortfall(X, spec),
                  dynamic_shortfall(X, 0.0, spec).values[0],
                  rho_bar(0.0, X, spec),
                  risk_map_R(0.0, two_atom.probs(1), spec, two_atom)]
        expected = target if target < 2.0 * _BRACKET_CAP else math.inf
        for value in routes:
            assert float(value) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_row_is_searched_on_its_own(self, seed):
        # step problems m >= root: roots near the first edge, beyond
        # 2^19 start (past the last edge too) and rows never or always met
        rng = np.random.default_rng(seed)
        start = 1.0 + 2.0 * rng.uniform(0.0, 5.0)
        far = start * 2.0 ** 19 * rng.uniform(1.0, 8.0, 12)
        roots = np.concatenate([
            rng.uniform(-3.0, 3.0, 12) * start, far, -far,
            [start, -start, 2.0 * start, math.inf, -math.inf]])
        rng.shuffle(roots)
        seen = []

        def met(m, open, width):
            seen.append(np.broadcast_to(width, open.shape)[open])
            return m >= roots

        values = _least_m(met, start, len(roots))
        expected = [scalar_least_m(lambda m: m >= root, start)
                    for root in roots]
        assert values.tobytes() == np.array(expected).tobytes()
        assert np.isinf(values).any() and np.isfinite(values).any()
        # a row is open while bracketing (width inf) or while its own
        # bracket is above the tolerance, never after
        for width in seen:
            assert np.isinf(width).all() or (width > _BISECT_TOL).all()


def hq_spec():
    return hq_shortfall_spec(QParams(q=0.7, alpha_q=0.1), 0.2,
                             HorizonSchedule.constant(0.3))


class TestProbeBlocks:
    """The nodewise level is evaluated in row blocks of at most
    _PROBE_CELLS law cells; every value is bitwise the dense one."""

    @pytest.mark.parametrize("spec", [entropic_spec(), hq_spec()],
                             ids=["exp", "hq"])
    def test_three_blocks_equal_the_dense_level(self, spec):
        lat = BrownianLattice(512, 1.0)
        X = RandomVariable(lat, 512, np.tanh(lat.brownian(512)))
        law, U, uf, B = _problem(spec, lat, 512, 256, 0.5, None)
        assert math.ceil(law.size / shortfall._PROBE_CELLS) == 3
        x = X.values[None, :]
        dense = _smallest_m(
            lambda m: np.einsum("ij,ij->i", law, uf(x, m[:, None])),
            B, _bracket_start(X, U, B), len(law), 256)
        assert np.array_equal(dynamic_shortfall(X, 0.5, spec).values, dense)

    @pytest.mark.parametrize("spec", [entropic_spec(), hq_spec()],
                             ids=["exp", "hq"])
    @pytest.mark.parametrize("model, kt", [
        (BrownianLattice(16, 1.0), 4),  # 5 x 17 cells: blocks of 2, 2, 1 rows
        (random_tree(5, depth=3), 2),   # 7 x 16 cells: 3, 3, 1 rows
        (random_tree(4, depth=4), 2),   # 8 x 48 cells: one row each
    ], ids=["lattice", "tree", "tree_row_blocks"])
    def test_small_blocks_change_no_value(self, monkeypatch, spec, model, kt):
        X = random_rv(model, 7)
        t = model.times[kt]
        dense = dynamic_shortfall(X, t, spec).values
        m = np.where(np.isfinite(dense), dense, 0.0) + 1e-10
        members = acceptance_member(X, m, spec, t).values
        monkeypatch.setattr(shortfall, "_PROBE_CELLS", 40)
        assert np.array_equal(dynamic_shortfall(X, t, spec).values, dense)
        assert np.array_equal(acceptance_member(X, m, spec, t).values,
                              members)

    @pytest.mark.parametrize("route", [
        lambda: static_shortfall(
            RandomVariable(ScenarioTree.terminal_atoms([0.5, 0.5]), 1,
                           [1.0, -1.0]), anti_cash_spec()),
        lambda: dynamic_shortfall(
            RandomVariable(BrownianLattice(4, 1.0), 4,
                           np.linspace(-1.0, 1.0, 5)), 0.5, anti_cash_spec()),
    ], ids=["coin", "lattice"])
    def test_one_row_blocks_keep_the_monotonicity_error(self, monkeypatch,
                                                        route):
        with pytest.raises(SpecificationError) as dense:
            route()
        monkeypatch.setattr(shortfall, "_PROBE_CELLS", 1)
        with pytest.raises(SpecificationError) as blocked:
            route()
        assert str(blocked.value) == str(dense.value)
