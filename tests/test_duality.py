import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horizonrisk import (AggregatorFn, DomainError, DualGrid,
                         HorizonSchedule, QParams, RandomVariable,
                         RiskSentinel, ScenarioTree, ShortfallSpec,
                         SpecificationError, TargetSchedule, TimeGridError,
                         UtilityFn, acceptance_member, c_min,
                         c_min_bruteforce, dual_value, hq_shortfall_spec,
                         risk_map_R, rho_bar, static_shortfall)
from horizonrisk.duality import _COARSE, _FINE, _cmin_batch, _dual_problem

from conftest import random_rv, random_tree


def linear_spec(B=0.0):
    return ShortfallSpec.classic(UtilityFn.linear(), B)


def entropic_spec(B=0.0):
    return ShortfallSpec.classic(UtilityFn.exp_bounded(1.0), B)


# the spec pools of acceptance criterion 7: weak duality, and c_min vs oracle
CMIN_POOL = [entropic_spec(),
             ShortfallSpec(UtilityFn.exp_bounded(0.8),
                           AggregatorFn.scaled_additive(0.7),
                           TargetSchedule.constant(0.1)),
             ShortfallSpec(UtilityFn.linear(),
                           AggregatorFn.exponential(0.5),
                           TargetSchedule.constant(0.2))]
DUAL_POOL = [linear_spec()] + CMIN_POOL

# the CMIN_POOL specs as (spec, beta, gamma, B): U(f(y, m)) = 1 - exp(-gamma w)
# with w = beta y + m, so c_min(m, Q) = (m + (H(Q|P) + log(1 - B)) / gamma)
# / beta and R(x, Q) = beta x - (H(Q|P) + log(1 - B)) / gamma exactly
TRANSLATION_POOL = [(CMIN_POOL[0], 1.0, 1.0, 0.0),
                    (CMIN_POOL[1], 0.7, 0.8, 0.1),
                    (CMIN_POOL[2], 0.5, 1.0, 0.2)]


@st.composite
def atom_vectors(draw, n, low, high):
    return np.array(draw(st.lists(st.floats(low, high), min_size=n,
                                  max_size=n)))


@st.composite
def dual_instances(draw, pool):
    """A random 2- or 3-atom tree, a spec of the pool and a vector of
    positive weights on the atoms, normalized to a measure Q."""
    n = draw(st.sampled_from([2, 3]))
    p = draw(atom_vectors(n, 0.15, 1.0))
    q = draw(atom_vectors(n, 0.15, 1.0))
    tree = ScenarioTree.terminal_atoms(p / p.sum())
    return tree, draw(st.sampled_from(pool)), q / q.sum()


@st.composite
def scaled_shortfall_cases(draw):
    """A random tree, a position on its terminal nodes, a utility with a
    feasible target and a scale beta of the scaled-additive aggregator."""
    tree = random_tree(draw(st.integers(0, 2**16)),
                       depth=draw(st.integers(1, 3)))
    X = RandomVariable(tree, tree.terminal_depth, draw(
        atom_vectors(tree.num_nodes(tree.terminal_depth), -2.0, 2.0)))
    utility, B = draw(st.sampled_from([(UtilityFn.linear(), 0.3),
                                       (UtilityFn.exp_bounded(0.8), 0.1),
                                       (UtilityFn.neg_exponential(1.2), -1.0)]))
    return X, utility, B, draw(st.floats(0.1, 1.0))


def simplex_and_p(tree, resolution):
    """The simplex grid on the terminal atoms with the reference P appended."""
    p = tree.probs(1)
    return p, DualGrid(np.vstack([DualGrid.simplex(len(p), resolution).measures,
                                  p]))


@pytest.fixture
def uniform_two(two_atom):
    return two_atom


class TestDualGrid:
    def test_simplex_rows_are_probabilities(self):
        grid = DualGrid.simplex(3, 0.1)
        assert grid.n_atoms == 3
        np.testing.assert_allclose(grid.measures.sum(axis=1), 1.0, atol=1e-12)
        assert np.min(grid.measures) >= 0.1 - 1e-12

    def test_resolution_counts(self):
        grid = DualGrid.simplex(2, 0.01)
        assert len(grid) == 99
        # the step is 1/round(1/h): entries may fall below h itself
        assert DualGrid.simplex(2, 0.6).measures.tolist() == [[0.5, 0.5]]

    def test_atom_cap(self):
        with pytest.raises(SpecificationError):
            DualGrid.simplex(7, 0.25)

    def test_rows_must_be_positive(self):
        with pytest.raises(SpecificationError):
            DualGrid(np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("build, match", [
        (lambda: DualGrid(np.array([0.5, 0.5])), "2-d array"),
        (lambda: DualGrid(np.full((1, 7), 1.0 / 7.0)), "capped at 6 atoms"),
        (lambda: DualGrid(np.array([[0.5, 0.4], [0.5, 0.5]])), "sum to 1"),
        (lambda: DualGrid(np.array([[np.nan, 0.5]])), "strictly positive"),
        (lambda: DualGrid.simplex(3, 0.5), "too coarse"),
        (lambda: DualGrid.simplex(7, 0.1), "capped at 6 atoms"),
        # counted, not built: C(99 999, 2) and C(99, 5) measures
        (lambda: DualGrid.simplex(3, 1e-5), "above the cap of 10000"),
        (lambda: DualGrid.simplex(6, 0.01), "above the cap of 10000"),
        (lambda: DualGrid.simplex(2, 0.0), "finite and positive"),
        (lambda: DualGrid.simplex(2, -0.1), "finite and positive"),
        (lambda: DualGrid.simplex(2, math.nan), "finite and positive"),
        (lambda: DualGrid.simplex(2, math.inf), "finite and positive"),
    ], ids=["one_dimensional", "seven_atoms", "row_sum", "nan_entry",
            "coarse_simplex", "seven_atom_simplex", "fine_three_atoms",
            "fine_six_atoms", "zero_resolution", "negative_resolution",
            "nan_resolution", "infinite_resolution"])
    def test_invalid_grids_rejected(self, build, match):
        with pytest.raises(SpecificationError, match=match):
            build()


class TestCmin:
    def test_linear_spec_at_reference_measure(self, uniform_two):
        for m in (-1.0, 0.0, 0.7, 2.5):
            v = c_min(m, np.array([0.5, 0.5]), linear_spec(), uniform_two)
            assert v == pytest.approx(m, abs=1e-6)

    def test_linear_spec_mismatched_measure_is_unbounded(self, uniform_two):
        v = c_min(0.7, np.array([0.6, 0.4]), linear_spec(), uniform_two)
        assert v is RiskSentinel.PLUS_INF
        oracle_near = c_min_bruteforce(0.7, np.array([0.6, 0.4]),
                                       linear_spec(), uniform_two)
        assert oracle_near is RiskSentinel.PLUS_INF

    def test_entropic_spec_relative_entropy_closed_form(self, uniform_two):
        # KKT of sup E_Q[-Y] s.t. E_P[1 - e^{-(Y+m)}] >= 0 gives
        # c_min(m, Q) = m + KL(Q || P)
        P = np.array([0.5, 0.5])
        for Q in (np.array([0.3, 0.7]), np.array([0.55, 0.45])):
            kl = float(np.sum(Q * np.log(Q / P)))
            for m in (-0.5, 0.25, 1.0):
                v = c_min(m, Q, entropic_spec(), uniform_two)
                assert v == pytest.approx(m + kl, abs=1e-6)

    def test_monotone_gap_for_cash_subadditive_specs(self, uniform_two):
        Q = np.array([0.4, 0.6])
        spec = entropic_spec()
        for m in (-0.5, 0.0, 0.5):
            for h in (0.25, 1.0):
                lhs = c_min(m, Q, spec, uniform_two)
                rhs = c_min(m + h, Q, spec, uniform_two)
                assert lhs <= rhs - h + 1e-6

    def test_oracle_agreement_on_two_atoms(self, uniform_two):
        Q = np.array([0.35, 0.65])
        lag = c_min(0.4, Q, entropic_spec(), uniform_two)
        oracle = c_min_bruteforce(0.4, Q, entropic_spec(), uniform_two)
        assert isinstance(lag, float) and isinstance(oracle, float)
        assert abs(lag - oracle) < 5e-3

    def test_infeasible_target_is_minus_infinity(self, uniform_two):
        spec = entropic_spec(B=2.0)  # unreachable: sup U = 1
        Q = np.array([0.5, 0.5])
        assert c_min(0.0, Q, spec, uniform_two) is RiskSentinel.MINUS_INF
        assert c_min_bruteforce(0.0, Q, spec,
                                uniform_two) is RiskSentinel.MINUS_INF

    def test_oracle_reports_plus_inf_at_the_upper_box_edge(self):
        # Q != P under the linear spec: the unbounded transfer raises the
        # first atom to the oracle's box edge +20 before it lowers the second
        # to -20, so the optimum pins the upper edge only
        tree = ScenarioTree.terminal_atoms([0.3, 0.7])
        Q = np.array([0.25, 0.75])
        assert c_min(0.0, Q, linear_spec(), tree) is RiskSentinel.PLUS_INF
        assert c_min_bruteforce(0.0, Q, linear_spec(),
                                tree) is RiskSentinel.PLUS_INF

    @pytest.mark.parametrize("spec", DUAL_POOL,
                             ids=["linear", "entropic", "scaled_additive",
                                  "exponential"])
    @pytest.mark.parametrize("precision", [_FINE, _COARSE],
                             ids=["fine", "coarse"])
    def test_batch_rows_do_not_depend_on_their_batch(self, spec, precision):
        # the R map passes only its open rows, so a row solved within a
        # mixed batch must equal the same row solved alone, bit for bit
        tree = ScenarioTree.terminal_atoms([0.25, 0.4, 0.35])
        p, uf, B = _dual_problem(spec, tree)
        Q = np.vstack([DualGrid.simplex(3, 0.25).measures, p])
        m = np.array([-1.2, 0.0, 0.7, 2.5])
        box = np.array([1000.0, 2000.0, 1000.0, 2000.0])
        values, infeasible = _cmin_batch(m, Q, p, uf, B, box, precision)
        for i in range(len(m)):
            alone = _cmin_batch(m[i:i + 1], Q[i:i + 1], p, uf, B,
                                box[i:i + 1], precision)
            assert np.array_equal(alone[0], values[i:i + 1])
            assert np.array_equal(alone[1], infeasible[i:i + 1])

    def test_oracle_agreement_on_three_atoms(self):
        tree = ScenarioTree.terminal_atoms([0.3, 0.45, 0.25])
        Q = np.array([0.2, 0.5, 0.3])
        lag = c_min(0.4, Q, entropic_spec(), tree)
        oracle = c_min_bruteforce(0.4, Q, entropic_spec(), tree)
        assert abs(lag - oracle) < 5e-3


class TestRiskMap:
    def test_linear_identity(self, uniform_two):
        P = np.array([0.5, 0.5])
        for x in (-1.0, 0.0, 0.8):
            assert risk_map_R(x, P, linear_spec(), uniform_two) == \
                pytest.approx(x, abs=1e-6)

    def test_divergent_cmin_rows_map_to_minus_infinity(self, uniform_two):
        v = risk_map_R(0.8, np.array([0.6, 0.4]), linear_spec(), uniform_two)
        assert v is RiskSentinel.MINUS_INF

    def test_monotone_in_level(self, uniform_two):
        Q = np.array([0.45, 0.55])
        vals = [risk_map_R(x, Q, entropic_spec(), uniform_two)
                for x in (-1.0, 0.0, 1.0, 2.0)]
        assert all(a <= b + 1e-8 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("Q", [[0.3, 0.7], [0.5, 0.5], [0.8, 0.2]])
    @pytest.mark.parametrize("x", [0.0, 0.4, -0.3])
    def test_upper_bracket_matches_the_translation_identity(self, Q, x):
        # f(y, m) = 0.5 y + m, so R(x, Q) = 0.5 (x - c_min(0, Q)) exactly;
        # at B = 0.99, R ~ 4.6 lies above the first upper edge 1 + 2|x|,
        # so the upper end of the bracket doubles before the bisection
        spec = ShortfallSpec(UtilityFn.exp_bounded(1.0),
                             AggregatorFn.scaled_additive(0.5),
                             TargetSchedule.constant(0.99))
        tree = ScenarioTree.terminal_atoms([0.3, 0.7])
        Q = np.array(Q)
        R = risk_map_R(x, Q, spec, tree)
        assert isinstance(R, float) and R > 1.0 + 2.0 * abs(x)
        assert abs(R - 0.5 * (x - c_min(0.0, Q, spec, tree))) <= 1e-8
        X = tree.constant(-x, 1)
        report = dual_value(X, spec, DualGrid(Q[None, :]))
        assert report.value <= static_shortfall(X, spec) + 1e-8

    @pytest.mark.parametrize("route", [c_min, risk_map_R, c_min_bruteforce])
    @pytest.mark.parametrize("Q", [[1.0], [0.2, 0.3, 0.5]])
    def test_measure_of_the_wrong_length_rejected(self, route, Q):
        # one entry is not broadcast over the two atoms
        tree = ScenarioTree.terminal_atoms([0.4, 0.6])
        with pytest.raises(SpecificationError,
                           match="Q must be a probability vector on the atoms"):
            route(0.1, np.array(Q), entropic_spec(), tree)


class TestDualValue:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: dual_value(random_rv(random_tree(3, depth=2), 5, depth=1),
                            entropic_spec(), DualGrid.simplex(2, 0.25)),
         TimeGridError, "terminal-depth"),
        (lambda: dual_value(ScenarioTree.terminal_atoms([0.5, 0.5]).constant(
            1.0, 1), entropic_spec(), DualGrid.simplex(3, 0.25)),
         SpecificationError, "atom count"),
        (lambda: c_min_bruteforce(0.0, np.full(4, 0.25), entropic_spec(),
                                  ScenarioTree.terminal_atoms([0.25] * 4)),
         SpecificationError, "limited to 3 atoms"),
        (lambda: dual_value(RandomVariable(ScenarioTree.terminal_atoms(
            [0.5, 0.5]), 1, [-np.inf, 1.0]), entropic_spec(),
            DualGrid.simplex(2, 0.25)), DomainError, "finite levels"),
        (lambda: risk_map_R(np.inf, np.array([0.5, 0.5]), entropic_spec(),
                            ScenarioTree.terminal_atoms([0.5, 0.5])),
         DomainError, "finite levels"),
        # a NaN cash level used to hang rho_bar's bracket and read as an
        # empty acceptance set in c_min
        (lambda: rho_bar(np.nan, ScenarioTree.terminal_atoms([0.5, 0.5])
                         .constant(1.0, 1), entropic_spec()),
         DomainError, "cash level m must be finite"),
        (lambda: rho_bar(np.inf, ScenarioTree.terminal_atoms([0.5, 0.5])
                         .constant(1.0, 1), entropic_spec()),
         DomainError, "cash level m must be finite"),
        (lambda: c_min(np.nan, np.array([0.5, 0.5]), entropic_spec(),
                       ScenarioTree.terminal_atoms([0.5, 0.5])),
         DomainError, "cash level m must be finite"),
        (lambda: c_min(-np.inf, np.array([0.5, 0.5]), entropic_spec(),
                       ScenarioTree.terminal_atoms([0.5, 0.5])),
         DomainError, "cash level m must be finite"),
        (lambda: c_min_bruteforce(np.nan, np.array([0.5, 0.5]),
                                  entropic_spec(),
                                  ScenarioTree.terminal_atoms([0.5, 0.5])),
         DomainError, "cash level m must be finite"),
    ], ids=["non_terminal_position", "grid_atom_mismatch", "oracle_4_atoms",
            "infinite_position", "infinite_level", "rho_bar_nan_cash",
            "rho_bar_infinite_cash", "c_min_nan_cash", "c_min_infinite_cash",
            "oracle_nan_cash"])
    def test_invalid_calls_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_linear_spec_attains_at_reference_measure(self, uniform_two):
        X = RandomVariable(uniform_two, 1, [1.0, -1.0])
        grid = DualGrid.simplex(2, 0.05)
        report = dual_value(X, linear_spec(), grid)
        assert report.value == pytest.approx(0.0, abs=1e-5)
        np.testing.assert_allclose(report.best_q, [0.5, 0.5])

    def test_divergent_rows_are_minus_infinity(self, uniform_two):
        # linear utility, additive aggregator: c_min(., Q) = +inf for every
        # Q != P, so R = -inf there and the supremum sits at Q = P
        X = RandomVariable(uniform_two, 1, [1.0, -2.0])
        grid = DualGrid.simplex(2, 0.05)
        report = dual_value(X, linear_spec(), grid)
        at_p = np.all(grid.measures == 0.5, axis=1)
        assert np.all(np.isneginf(report.r_values[~at_p]))
        assert report.r_values[at_p][0] == pytest.approx(0.5, abs=1e-8)
        assert report.value == report.r_values[at_p][0]

    def test_entropic_gap_small_on_light_grid(self, uniform_two):
        X = RandomVariable(uniform_two, 1, [1.0, -1.0])
        grid = DualGrid.simplex(2, 0.05)
        report = dual_value(X, entropic_spec(), grid)
        static = static_shortfall(X, entropic_spec())
        assert report.value <= static + 1e-8
        assert static - report.value <= 0.05

    def test_gap_shrinks_as_grid_refines(self, uniform_two):
        # nested halvings: each refinement contains the coarser grid, so the
        # supremum over it can only grow
        X = RandomVariable(uniform_two, 1, [0.5, -1.5])
        static = static_shortfall(X, entropic_spec())
        gaps = []
        for h in (0.25, 0.125, 0.0625):
            report = dual_value(X, entropic_spec(), DualGrid.simplex(2, h))
            gaps.append(static - report.value)
        assert all(g >= -1e-8 for g in gaps)
        assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_row_is_the_risk_map_alone(self, n):
        # X = 0 gives every row the level 0 and so the first edge 1; the
        # roots R = 4.6 - H(Q|P) straddle the edge 4, so the rows' brackets
        # differ in width, and a row matches its search alone only if it
        # stops on its own
        spec = ShortfallSpec(UtilityFn.exp_bounded(1.0),
                             AggregatorFn.scaled_additive(0.5),
                             TargetSchedule.constant(0.99))
        rng = np.random.default_rng(n)
        p = rng.uniform(0.2, 1.0, n)
        tree = ScenarioTree.terminal_atoms(p / p.sum())
        P = tree.probs(1)
        vertex = np.eye(n)[np.argmin(P)]
        grid = DualGrid(np.vstack([P, 0.5 * (P + vertex),
                                   0.01 * P + 0.99 * vertex]))
        report = dual_value(tree.constant(0.0, 1), spec, grid)
        alone = [float(risk_map_R(x, Q, spec, tree))
                 for x, Q in zip(report.x_values, grid.measures)]
        assert report.r_values.tobytes() == np.array(alone).tobytes()
        assert report.r_values.min() < 4.0 < report.r_values.max()

    def test_three_atom_weak_duality(self):
        tree = ScenarioTree.terminal_atoms([0.25, 0.4, 0.35])
        rng = np.random.default_rng(1)
        X = RandomVariable(tree, 1, rng.uniform(-2, 2, 3))
        grid = DualGrid.simplex(3, 0.1)
        report = dual_value(X, entropic_spec(), grid)
        static = static_shortfall(X, entropic_spec())
        assert report.value <= static + 1e-8


class TestDualProperties:
    @given(case=dual_instances(DUAL_POOL), data=st.data())
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_weak_duality(self, case, data):
        tree, spec, _ = case
        n = tree.num_nodes(1)
        X = RandomVariable(tree, 1, data.draw(atom_vectors(n, -2.0, 2.0)))
        report = dual_value(X, spec, DualGrid.simplex(n, 0.25))
        static = static_shortfall(X, spec)
        assert float(report.value) <= float(static) + 1e-8

    @given(case=dual_instances(DUAL_POOL), x=st.floats(-2.0, 2.0))
    @example(case=(ScenarioTree.terminal_atoms([0.5, 0.5]), linear_spec(),
                   np.array([0.6, 0.4])), x=0.8)
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_one_row_dual_matches_risk_map(self, case, x):
        # dual_value and risk_map_R share one solver and one box rule, so a
        # one-row grid gives R itself: the same sentinel or the same float
        tree, spec, Q = case
        report = dual_value(tree.constant(-x, 1), spec, DualGrid(Q[None, :]))
        direct = risk_map_R(report.x_values[0], Q, spec, tree)
        assert report.r_values[0] == float(direct)

    @pytest.mark.parametrize("spec, beta, gamma, B", TRANSLATION_POOL,
                             ids=["entropic", "scaled_additive", "exponential"])
    @given(data=st.data())
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_translation_rows_match_the_relative_entropy_form(
            self, spec, beta, gamma, B, data):
        tree, _, _ = data.draw(dual_instances([spec]))
        p, grid = simplex_and_p(tree, 0.25)
        X = RandomVariable(tree, 1, data.draw(atom_vectors(len(p), -2.0, 2.0)))
        report = dual_value(X, spec, grid)
        Q = grid.measures
        np.testing.assert_allclose(report.x_values, Q @ -X.values, atol=1e-12)
        entropy = np.sum(Q * np.log(Q / p), axis=1)
        exact = beta * report.x_values - (entropy + np.log(1.0 - B)) / gamma
        assert np.all(np.isfinite(report.r_values))
        np.testing.assert_allclose(report.r_values, exact, rtol=0, atol=2e-9)

    @given(case=dual_instances([linear_spec()]), data=st.data())
    @settings(max_examples=2, deadline=None, derandomize=True)
    def test_linear_additive_rows_are_minus_inf_exactly_off_p(self, case,
                                                              data):
        tree, spec, _ = case
        p, grid = simplex_and_p(tree, 0.25)
        X = RandomVariable(tree, 1, data.draw(atom_vectors(len(p), -2.0, 2.0)))
        report = dual_value(X, spec, grid)
        at_p = np.all(np.isclose(grid.measures, p, rtol=0, atol=1e-12), axis=1)
        assert np.all(np.isneginf(report.r_values[~at_p]))
        np.testing.assert_allclose(report.r_values[at_p], p @ -X.values,
                                   rtol=0, atol=2e-9)

    @given(case=scaled_shortfall_cases())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_scaled_additive_is_the_classic_shortfall_of_beta_x(self, case):
        X, utility, B, beta = case
        scaled = static_shortfall(X, ShortfallSpec(
            utility, AggregatorFn.scaled_additive(beta),
            TargetSchedule.constant(B)))
        classic = static_shortfall(beta * X, ShortfallSpec.classic(utility, B))
        assert float(scaled) == pytest.approx(float(classic), abs=2e-9)

    @given(case=dual_instances(CMIN_POOL), m=st.floats(-1.5, 1.5))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_cmin_upper_bounds_the_oracle(self, case, m):
        # every reported c_min is an evaluated dual value, so it bounds the
        # primal supremum, which the feasible grid points of the oracle reach
        tree, spec, Q = case
        lag = c_min(m, Q, spec, tree)
        oracle = c_min_bruteforce(m, Q, spec, tree)
        if isinstance(lag, float) and isinstance(oracle, float):
            assert lag >= oracle - 1e-9


class TestRhoBar:
    def test_linear_spec_closed_form(self, uniform_two):
        X = RandomVariable(uniform_two, 1, [2.0, 0.0])
        for m in (-1.0, 0.0, 1.5):
            v = rho_bar(m, X, linear_spec())
            assert v == pytest.approx(-1.0 - m, abs=1e-8)

    def test_decrement_inequality_with_equality_for_linear(self, uniform_two):
        X = RandomVariable(uniform_two, 1, [1.0, -0.5])
        for spec, exact in ((linear_spec(), True), (entropic_spec(), False)):
            for delta in (0.25, 1.0):
                lhs = rho_bar(0.3 + delta, X, spec)
                rhs = rho_bar(0.3, X, spec) - delta
                assert lhs <= rhs + 1e-8
                if exact:
                    assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_hq_constant_inversion(self):
        tree = ScenarioTree.terminal_atoms([1.0])
        spec = hq_shortfall_spec(QParams(q=0.5, alpha_q=0.0), beta=0.0,
                                 schedule=HorizonSchedule.zero())
        X = tree.constant(-1.0, 1)
        # need (-1 + k)^- <= 0.5, i.e. k >= 0.5
        assert rho_bar(0.5, X, spec) == pytest.approx(0.5, abs=1e-8)

    def test_cash_additive_in_its_argument(self):
        tree = random_tree(3, depth=2)
        X = random_rv(tree, 33)
        spec = entropic_spec()
        base = rho_bar(0.4, X, spec)
        shifted = rho_bar(0.4, X + 1.3, spec)
        assert shifted == pytest.approx(base - 1.3, abs=1e-8)

    def test_membership_consistency_on_a_grid(self, uniform_two):
        X = RandomVariable(uniform_two, 1, [1.2, -0.8])
        spec = entropic_spec()
        m = 0.4
        k_star = rho_bar(m, X, spec)
        ks = np.linspace(k_star - 0.3, k_star + 0.3, 121)
        member = [acceptance_member(X + float(k), m, spec, 0.0).values[0]
                  for k in ks]
        first = ks[int(np.argmax(member))]
        assert abs(first - k_star) <= (ks[1] - ks[0]) + 1e-9


class TestOracleBattery:
    def test_random_instances_agree(self):
        rng = np.random.default_rng(2024)
        specs = [entropic_spec(),
                 ShortfallSpec(UtilityFn.exp_bounded(0.8),
                               AggregatorFn.scaled_additive(0.7),
                               TargetSchedule.constant(0.1)),
                 ShortfallSpec(UtilityFn.linear(),
                               AggregatorFn.exponential(0.5),
                               TargetSchedule.constant(0.2))]
        for trial in range(10):
            n = 2 if trial % 2 == 0 else 3
            raw = rng.uniform(0.2, 1.0, n)
            tree = ScenarioTree.terminal_atoms(raw / raw.sum())
            q_raw = rng.uniform(0.2, 1.0, n)
            Q = q_raw / q_raw.sum()
            m = float(rng.uniform(-1.5, 1.5))
            spec = specs[trial % len(specs)]
            lag = c_min(m, Q, spec, tree)
            oracle = c_min_bruteforce(m, Q, spec, tree)
            assert isinstance(lag, float) and isinstance(oracle, float)
            assert abs(lag - oracle) < 5e-3


class TestConcavityPrecondition:
    def test_convex_composition_is_unsupported(self, uniform_two):
        convex_agg = AggregatorFn(fn=lambda y, m: y ** 3 + m,
                                  name="cubic")
        spec = ShortfallSpec(UtilityFn.linear(), convex_agg,
                             TargetSchedule.constant(0.0))
        with pytest.raises(SpecificationError):
            c_min(0.0, np.array([0.5, 0.5]), spec, uniform_two)

    def test_hq_aggregator_is_concave_enough(self, uniform_two):
        spec = hq_shortfall_spec(QParams(q=0.5, alpha_q=0.0), beta=0.0,
                                 schedule=HorizonSchedule.zero())
        v = c_min(0.5, np.array([0.5, 0.5]), spec, uniform_two)
        assert isinstance(v, (float, RiskSentinel))
