import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonrisk import (BrownianLattice, DomainError,
                         HorizonSchedule, LinearDriver,
                         LossSpec, QParams, QuadraticQDriver, RandomVariable,
                         ScenarioTree, ShortfallSpec, TimeGridError,
                         TreeStructureError, UtilityFn, acceptance_member,
                         discounted_wrap, dynamic_shortfall, entropic,
                         g_risk_measure, h_entropic, hq_entropic_losses,
                         hq_shortfall_spec, longevity_girsanov,
                         quadratic_transform_solve, restriction_check, rho_bar,
                         solve_bsde, solve_family, static_shortfall)

from conftest import random_rv, random_tree


class TestScenarioTreeConstruction:
    def test_two_atom_layout(self, two_atom):
        assert two_atom.num_nodes(0) == 1
        assert two_atom.num_nodes(1) == 2
        np.testing.assert_allclose(two_atom.probs(1), [0.5, 0.5])

    def test_child_probabilities_must_sum_to_one(self):
        nodes = [(0, 0, None, 1.0), (1, 1, 0, 0.6), (2, 1, 0, 0.5)]
        with pytest.raises(TreeStructureError):
            ScenarioTree([0.0, 1.0], nodes)

    def test_child_probabilities_must_be_positive(self):
        nodes = [(0, 0, None, 1.0), (1, 1, 0, 1.0), (2, 1, 0, 0.0)]
        with pytest.raises(TreeStructureError):
            ScenarioTree([0.0, 1.0], nodes)

    def test_depth_must_follow_parent(self):
        nodes = [(0, 0, None, 1.0), (1, 2, 0, 1.0)]
        with pytest.raises(TreeStructureError):
            ScenarioTree([0.0, 0.5, 1.0], nodes)

    def test_leaves_must_reach_final_depth(self):
        nodes = [(0, 0, None, 1.0), (1, 1, 0, 0.5), (2, 1, 0, 0.5),
                 (3, 2, 1, 1.0)]
        with pytest.raises(TreeStructureError):
            ScenarioTree([0.0, 0.5, 1.0], nodes)

    def test_cumulative_probabilities_multiply_down_paths(self):
        tree = random_tree(7, depth=4)
        for k in range(1, 5):
            assert abs(tree.probs(k).sum() - 1.0) < 1e-12

    def test_times_must_increase(self):
        with pytest.raises(TimeGridError):
            ScenarioTree([0.0, 0.0], [(0, 0, None, 1.0), (1, 1, 0, 1.0)])


class TestNonFiniteInputRejected:
    @pytest.mark.parametrize("times, nodes, error", [
        ([0.0, 1.0], [(0, 0, None, np.nan), (1, 1, 0, 1.0)],
         TreeStructureError),
        ([0.0, 1.0], [(0, 0, None, 1.0), (1, 1, 0, np.nan), (2, 1, 0, 1.0)],
         TreeStructureError),
        ([0.0, 1.0], [(0, 0, None, 1.0), (1, 1, 0, np.inf), (2, 1, 0, 0.5)],
         TreeStructureError),
        ([0.0, np.nan], [(0, 0, None, 1.0), (1, 1, 0, 1.0)], TimeGridError),
        ([np.nan, 1.0], [(0, 0, None, 1.0), (1, 1, 0, 1.0)], TimeGridError),
        ([0.0, np.inf], [(0, 0, None, 1.0), (1, 1, 0, 1.0)], TimeGridError),
    ], ids=["root-p-nan", "child-p-nan", "child-p-inf", "time-nan",
            "start-nan", "time-inf"])
    def test_scenario_tree(self, times, nodes, error):
        with pytest.raises(error):
            ScenarioTree(times, nodes)

    @pytest.mark.parametrize("steps, horizon, up_probs, error", [
        (2, np.nan, None, TimeGridError), (2, np.inf, None, TimeGridError),
        (2, 1.0, [0.5, np.nan], TreeStructureError),
        (2, 1.0, [np.nan, np.nan], TreeStructureError),
        (0, 1.0, None, TimeGridError),
        (2, 1.0, [0.5], TreeStructureError),
    ], ids=["horizon-nan", "horizon-inf", "up-nan", "up-all-nan", "no-steps",
            "up-too-short"])
    def test_brownian_lattice(self, steps, horizon, up_probs, error):
        with pytest.raises(error):
            BrownianLattice(steps, horizon, up_probs=up_probs)


# node ids that do not group children by parent: the depth-1 nodes are 1
# and 3, and their children 2, 5 (of node 1) and 4, 6 (of node 3) interleave
INTERLEAVED = [(0, 0, None, 1.0), (3, 1, 0, 0.25), (1, 1, 0, 0.75),
               (4, 2, 3, 0.1), (2, 2, 1, 0.375), (6, 2, 3, 0.9),
               (5, 2, 1, 0.625)]


class TestInterleavedLayout:
    """Each tree operation on the interleaved tree is checked against a
    reference that walks the node list itself."""

    TREE = ScenarioTree([0.0, 0.5, 1.0], INTERLEAVED)
    PARENT = {i: par for i, _, par, _ in INTERLEAVED}
    P = {i: p for i, _, _, p in INTERLEAVED}
    AT = [sorted(i for i, d, _, _ in INTERLEAVED if d == k) for k in range(3)]

    def ancestor(self, j, depth):
        while j not in self.AT[depth]:
            j = self.PARENT[j]
        return j

    def test_step_expectation_is_the_per_node_sum_bitwise(self):
        values = np.random.default_rng(5).uniform(-2.0, 2.0, 4)
        values[2] = -0.0
        for k, v in ((1, values), (0, values[:2]), (1, -0.0 * np.ones(4))):
            want = []
            for i in self.AT[k]:
                total = 0.0
                for slot, j in enumerate(self.AT[k + 1]):
                    if self.PARENT[j] == i:
                        total += self.P[j] * v[slot]
                want.append(total)
            got = self.TREE.step_expectation(v, k)
            assert got.tobytes() == np.array(want).tobytes()

    def test_cond_matrix_is_the_path_product_bitwise(self):
        for k in range(3):
            for d in range(k, 3):
                want = np.zeros((len(self.AT[k]), len(self.AT[d])))
                for col, j in enumerate(self.AT[d]):
                    path = [j]
                    while path[-1] not in self.AT[k]:
                        path.append(self.PARENT[path[-1]])
                    prob = 1.0
                    for node in reversed(path[:-1]):
                        prob *= self.P[node]
                    want[self.AT[k].index(path[-1]), col] = prob
                got = self.TREE.cond_matrix(k, d)
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(
                    got, pushed_identity_cond_matrix(self.TREE, k, d))
        assert np.array_equal(self.TREE.probs(2),
                              [0.75 * 0.375, 0.25 * 0.1, 0.75 * 0.625,
                               0.25 * 0.9])

    def test_lift_is_the_ancestor_walk(self):
        # depth-mismatched arithmetic lifts the shallower operand, either side
        for k in range(3):
            values = np.arange(1.0, len(self.AT[k]) + 1.0)
            shallow = RandomVariable(self.TREE, k, values)
            for d in range(k, 3):
                want = [values[self.AT[k].index(self.ancestor(j, k))]
                        for j in self.AT[d]]
                zero = self.TREE.constant(0.0, d)
                for lifted in (shallow + zero, zero + shallow):
                    assert lifted.depth == d
                    assert np.array_equal(lifted.values, want)

    def test_json_round_trip(self):
        data = self.TREE.to_json_dict()
        assert [(nd["id"], nd["depth"], nd["parent"], nd["p"])
                for nd in data["nodes"]] == sorted(INTERLEAVED)
        clone = ScenarioTree.from_json_dict(json.loads(json.dumps(data)))
        assert clone.to_json_dict() == data
        for k in range(3):
            assert np.array_equal(clone.cond_matrix(k, 2),
                                  self.TREE.cond_matrix(k, 2))


class TestConditionalExpectation:
    def test_constant_is_preserved(self):
        tree = random_tree(1, depth=4)
        X = tree.constant(3.25, 4)
        for k in range(5):
            np.testing.assert_allclose(X.condexp(k).values, 3.25, atol=1e-12)

    def test_two_atom_hand_value(self, two_atom):
        X = RandomVariable(two_atom, 1, [2.0, 0.0])
        assert X.condexp(0).values[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_tower_property(self, seed):
        tree = random_tree(seed, depth=5)
        X = random_rv(tree, seed + 100)
        full = X.expectation()
        for k in range(5):
            assert X.condexp(k).expectation() == pytest.approx(full, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_linearity_and_monotonicity(self, seed):
        tree = random_tree(seed, depth=5)
        X = random_rv(tree, seed + 10)
        Y = random_rv(tree, seed + 20)
        lin = (2.0 * X - 3.0 * Y).condexp(2).values
        np.testing.assert_allclose(
            lin, 2.0 * X.condexp(2).values - 3.0 * Y.condexp(2).values,
            atol=1e-12)
        Z = X + Y.apply(np.abs)  # Z >= X nodewise
        assert np.all(Z.condexp(1).values >= X.condexp(1).values - 1e-12)

    def test_depth_out_of_range(self, two_atom):
        X = RandomVariable(two_atom, 1, [1.0, 2.0])
        with pytest.raises(TimeGridError):
            X.condexp(2)
        with pytest.raises(TimeGridError):
            X.condexp(0).condexp(1)


def column_by_column_cond_matrix(model, from_depth, to_depth):
    """Reference conditional law: one backward conditional expectation of
    each terminal indicator per column."""
    n_to = model.num_nodes(to_depth)
    cols = np.empty((model.num_nodes(from_depth), n_to))
    eye = np.eye(n_to)
    for j in range(n_to):
        cols[:, j] = model.cond_expectation(eye[j], to_depth, from_depth)
    return cols


@st.composite
def models_and_depths(draw):
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        model = random_tree(seed, depth=draw(st.integers(1, 4)),
                            max_branching=draw(st.integers(2, 3)))
    else:
        n = draw(st.integers(1, 24))
        ups = draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
        model = BrownianLattice(n, 1.0, up_probs=np.array(ups))
    to_depth = draw(st.integers(0, model.terminal_depth))
    from_depth = draw(st.integers(0, to_depth))
    return model, from_depth, to_depth


def pushed_identity_cond_matrix(model, from_depth, to_depth):
    """Reference conditional law: the identity on the from_depth nodes pushed
    forward one step at a time."""
    rows = np.eye(model.num_nodes(from_depth))
    for k in range(from_depth, to_depth):
        rows = model.step_forward(rows, k)
    return rows


@st.composite
def lattices_and_depth(draw):
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        slope = draw(st.floats(-3.0, 3.0))
        model = BrownianLattice(n, 2.0).tilted(lambda t: 1.0 + slope * t)
    else:
        ups = draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))
        model = BrownianLattice(n, 1.0, up_probs=np.array(ups))
    to_depth = draw(st.one_of(st.just(n), st.integers(0, n)))
    return model, to_depth


class TestConditionalLaw:
    @given(case=lattices_and_depth())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_lattice_law_is_the_pushed_identity_bitwise(self, case):
        lat, d = case
        for k in range(d + 1):
            assert np.array_equal(lat.cond_matrix(k, d),
                                  pushed_identity_cond_matrix(lat, k, d))

    @given(case=models_and_depths(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_forward_law_matches_backward_columns(self, case, seed):
        model, k, d = case
        cond = model.cond_matrix(k, d)
        np.testing.assert_allclose(cond, column_by_column_cond_matrix(model, k, d),
                                   rtol=0.0, atol=1e-15)
        x = np.random.default_rng(seed).uniform(-3.0, 3.0, model.num_nodes(d))
        np.testing.assert_allclose(cond @ x, model.cond_expectation(x, d, k),
                                   rtol=1e-13, atol=1e-13)

    def test_depth_order_enforced(self):
        with pytest.raises(TimeGridError):
            BrownianLattice(4, 1.0).cond_matrix(3, 1)


class TestBrownianLattice:
    def test_increment_moments_exact(self):
        lat = BrownianLattice(16, 2.0)
        dt = lat.dt(0)
        for k in (0, 5, 15):
            b_next = lat.brownian(k + 1)
            b_here = lat.brownian(k)
            # conditional mean 0 and variance dt, exactly
            inc_mean = lat.step_expectation(b_next, k) - b_here
            np.testing.assert_allclose(inc_mean, 0.0, atol=1e-14)
            second = lat.step_expectation(b_next ** 2, k) - b_here ** 2
            np.testing.assert_allclose(second, dt, atol=1e-13)

    def test_path_sum_moments(self):
        lat = BrownianLattice(12, 1.5)
        for k in (1, 6, 12):
            b = lat.brownian(k)
            w = lat.probs(k)
            assert np.dot(w, b) == pytest.approx(0.0, abs=1e-14)
            assert np.dot(w, b ** 2) == pytest.approx(k * lat.dt(0),
                                                      abs=1e-12)

    def test_step_z_is_discrete_gradient(self):
        lat = BrownianLattice(8, 1.0)
        vals = lat.brownian(3) ** 2
        z = lat.step_z(vals, 2)
        manual = (vals[1:] - vals[:-1]) / (2.0 * math.sqrt(lat.dt(2)))
        np.testing.assert_allclose(z, manual, atol=1e-13)

    def test_lifting_is_rejected(self):
        lat = BrownianLattice(4, 1.0)
        X = RandomVariable(lat, 2, [1.0, 2.0, 3.0])
        Y = RandomVariable(lat, 3, np.ones(4))
        with pytest.raises(TreeStructureError):
            _ = X + Y

    def test_tilted_lattice_normalizes_each_step(self):
        lat = BrownianLattice(6, 1.0)
        tilted = lat.tilted(lambda t: 0.8)
        ones = np.ones(7)
        for k in range(6):
            ones = tilted.step_expectation(np.ones(k + 2), k)
            np.testing.assert_allclose(ones, 1.0, atol=1e-14)
        assert tilted.probs(6).sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError, match="too large to normalize"):
            lat.tilted(lambda t: 1e4)


class TestStepHooks:
    """The one-step hooks take a depth in [0, terminal depth) and raise
    TimeGridError outside it; at -1 a negative index would otherwise read
    the last step's (lattice) or the root's (tree) arrays."""

    LATTICE = BrownianLattice(4, 1.0)
    TREE = random_tree(4, depth=4)

    @pytest.mark.parametrize("model, hook", [
        (LATTICE, "step_expectation"), (LATTICE, "step_forward"),
        (LATTICE, "step_z"), (TREE, "step_expectation"),
        (TREE, "step_forward"),
    ], ids=["lattice-step_expectation", "lattice-step_forward",
            "lattice-step_z", "tree-step_expectation", "tree-step_forward"])
    def test_depth_outside_the_steps_rejected(self, model, hook):
        step = getattr(model, hook)
        for depth in (-1, 4):
            with pytest.raises(TimeGridError,
                               match=rf"^step depth {depth} outside \[0, 4\)$"):
                step(np.arange(5.0), depth)


class TestJsonRoundTrip:
    def test_schema_and_round_trip(self):
        tree = random_tree(11, depth=3)
        data = tree.to_json_dict()
        assert set(data) == {"times", "nodes"}
        assert set(data["nodes"][0]) == {"id", "depth", "parent", "p"}
        clone = ScenarioTree.from_json_dict(json.loads(json.dumps(data)))
        assert clone.times == tree.times
        for k in range(4):
            np.testing.assert_allclose(clone.probs(k), tree.probs(k),
                                       atol=0.0)


class TestRandomVariableArithmetic:
    def test_tree_lifting_aligns_depths(self):
        tree = random_tree(3, depth=3)
        shallow = random_rv(tree, 1, depth=1)
        deep = random_rv(tree, 2, depth=3)
        total = shallow + deep
        assert total.depth == 3
        nodes = tree.to_json_dict()["nodes"]
        parent = {nd["id"]: nd["parent"] for nd in nodes}
        at = {k: [nd["id"] for nd in nodes if nd["depth"] == k] for k in (1, 3)}
        lifted = [shallow.values[at[1].index(parent[parent[j]])] for j in at[3]]
        np.testing.assert_allclose(total.values, np.add(lifted, deep.values))

    def test_scalar_minus_random_variable(self, two_atom):
        X = RandomVariable(two_atom, 1, [1.0, -2.5])
        diff = 3.0 - X
        assert diff.depth == 1
        assert np.array_equal(diff.values, [2.0, 5.5])

    def test_neg_part(self, two_atom):
        X = RandomVariable(two_atom, 1, [1.0, -2.5])
        np.testing.assert_allclose(X.neg_part().values, [0.0, 2.5])

    def test_model_mismatch_rejected(self, two_atom):
        other = ScenarioTree.terminal_atoms([0.5, 0.5])
        X = RandomVariable(two_atom, 1, [1.0, 2.0])
        Y = RandomVariable(other, 1, [1.0, 2.0])
        with pytest.raises(TreeStructureError):
            _ = X + Y

    def test_wrong_length_rejected(self, two_atom):
        with pytest.raises(TreeStructureError):
            RandomVariable(two_atom, 1, [1.0])

    @pytest.mark.parametrize("model", [random_tree(4, depth=4),
                                       BrownianLattice(4, 1.0)],
                             ids=["tree", "lattice"])
    @pytest.mark.parametrize("build", [
        lambda model, depth: RandomVariable(model, depth, [0.0]),
        lambda model, depth: model.constant(0.0, depth),
    ], ids=["RandomVariable", "constant"])
    def test_depth_off_the_grid_rejected(self, model, build):
        for depth in (5, -1):
            with pytest.raises(TimeGridError,
                               match=rf"^depth {depth} outside \[0, 4\]$"):
                build(model, depth)

    def test_nan_rejected_infinities_kept(self, two_atom):
        # NaN is neither a value nor a sentinel; +-inf stay legal as the
        # sentinel markers of dynamic_shortfall
        with pytest.raises(DomainError):
            RandomVariable(two_atom, 1, [np.nan, 1.0])
        X = RandomVariable(two_atom, 1, [np.inf, -np.inf])
        assert np.array_equal(X.values, [np.inf, -np.inf])


class TestDeepTreeInvariants:
    def test_tower_linear_monotone_at_depth_six(self):
        tree = random_tree(600, depth=6, max_branching=3)
        X = random_rv(tree, 601)
        Y = random_rv(tree, 602)
        assert X.condexp(3).expectation() == pytest.approx(X.expectation(),
                                                           abs=1e-12)
        combo = (1.5 * X + 0.5 * Y).condexp(4).values
        np.testing.assert_allclose(
            combo, 1.5 * X.condexp(4).values + 0.5 * Y.condexp(4).values,
            atol=1e-12)
        bigger = X + Y.apply(np.abs)
        for k in range(7):
            assert np.all(bigger.condexp(k).values
                          >= X.condexp(k).values - 1e-12)


def first_grid_match(times, t):
    """The linear-scan reference rule of depth_of: the first grid time
    within 1e-9 of t, or None."""
    return next((k for k, tk in enumerate(times) if abs(tk - t) <= 1e-9), None)


# a terminal of the 4-step lattice handed to routes of an 8-step lattice
LAT8 = BrownianLattice(8, 1.0)
FOREIGN = RandomVariable(BrownianLattice(4, 1.0), 4, [1.0, 0.5, 0.0, -0.5, -1.0])
Q_DRIVER = QuadraticQDriver(0.5, HorizonSchedule.constant(0.2))


# the static routes' coin resolves at 0.5, after a sure first step to 0.25
COIN = ScenarioTree([0.0, 0.25, 0.5], [(0, 0, None, 1.0), (1, 1, 0, 1.0),
                                       (2, 2, 1, 0.5), (3, 2, 1, 0.5)])
COIN_Y = RandomVariable(COIN, 2, [1.0, -1.0])
CLASSIC = ShortfallSpec.classic(UtilityFn.exp_bounded(1.0), 0.0)
# the static problems that take a horizon, as functions of u
STATIC_ROUTES = {
    "static_shortfall": lambda u: static_shortfall(COIN_Y, CLASSIC, u),
    "rho_bar": lambda u: rho_bar(0.2, COIN_Y, CLASSIC, u),
}


class TestHorizonContract:
    def test_depth_of_keeps_the_first_match_rule(self):
        chain = [(k, k, None if k == 0 else k - 1, 1.0) for k in range(5)]
        models = [ScenarioTree([0.0, 1e-10, 5e-10, 1.2e-9, 1.0], chain),
                  BrownianLattice(512, 1.0), BrownianLattice(7, 3e6)]
        for model in models:
            ts = model.times
            probes = [tk + d for tk in ts for d in
                      (0.0, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 3e-9, -3e-9)]
            for t in probes + [-1.0, ts[-1] + 1.0, np.nan, np.inf]:
                want = first_grid_match(ts, t)
                if want is None:
                    with pytest.raises(TimeGridError):
                        model.depth_of(t)
                else:
                    assert model.depth_of(t) == want

    def test_depths_and_default_horizon(self):
        lat = BrownianLattice(4, 1.0)
        X = lat.constant(1.0, 2)
        assert lat.horizon_depths(X, 0.25) == (1, 2)
        assert lat.horizon_depths(X, 0.5, 1.0) == (2, 4)
        for t, u in [(0.75, None), (0.0, 0.25), (0.37, 1.0), (0.0, 0.37)]:
            with pytest.raises(TimeGridError):
                lat.horizon_depths(X, t, u)

    @pytest.mark.parametrize("route", [
        lambda X: LAT8.horizon_depths(X, 0.0),
        lambda X: LAT8.constant(0.0, 4) + X,
        lambda X: solve_bsde(LAT8, Q_DRIVER, X),
        lambda X: g_risk_measure(LAT8, Q_DRIVER, X, 0.0, 1.0),
        lambda X: solve_family(LAT8, {1.0: Q_DRIVER}, X, 0.0, 1.0),
        lambda X: restriction_check(LAT8, Q_DRIVER, 0.0, 0.5, 1.0, X),
        lambda X: longevity_girsanov(LAT8, LinearDriver.from_constants(c=0.1),
                                     0.0, 1.0, 1.0, X),
        lambda X: quadratic_transform_solve(LAT8, 0.5, Q_DRIVER.rate, X, 0.5),
        lambda X: discounted_wrap(lambda Y, t: entropic(Y, t),
                                  LAT8.constant(1.0, 4), X, 0.0, 1.0),
    ], ids=["horizon_depths", "arithmetic", "solve_bsde", "g_risk_measure",
            "solve_family", "restriction_check", "longevity_girsanov",
            "quadratic_transform_solve", "discounted_wrap"])
    def test_foreign_position_rejected(self, route):
        with pytest.raises(TreeStructureError):
            route(FOREIGN)

    def test_quadratic_transform_on_its_own_lattice(self):
        own = quadratic_transform_solve(FOREIGN.model, 0.5, Q_DRIVER.rate,
                                        FOREIGN, 0.5)
        np.testing.assert_allclose(own.values, [0.624, 0.130, -0.361],
                                   atol=1e-3)

    @pytest.mark.parametrize("u", [0.25, 0.37, 5.0])
    def test_horizon_before_or_off_the_grid_rejected(self, u):
        """u before depth(X), off the grid and beyond the horizon."""
        lat = BrownianLattice(4, 1.0)
        X = RandomVariable(lat, 2, [0.5, -0.2, -1.0])
        loss = LossSpec(0.1, QParams(q=0.5, alpha_q=0.2))
        schedule = HorizonSchedule.constant(0.3)
        spec = hq_shortfall_spec(loss.qparams, 0.1, schedule)
        routes = [lambda: h_entropic(X, 0.0, u, 1.0, schedule),
                  lambda: hq_entropic_losses(X, 0.0, u, loss, schedule),
                  lambda: static_shortfall(X, spec, u=u),
                  lambda: acceptance_member(X, 0.0, spec, 0.0, u)]
        for route in routes + [lambda r=r: r(u)
                               for r in STATIC_ROUTES.values()]:
            with pytest.raises(TimeGridError):
                route()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_routes_agree_on_which_calls_are_valid(self, data):
        """The hq-entropic measure on losses by its closed form, the
        q-quadratic BSDE and the h-generalized shortfall either all return or
        all raise TimeGridError; valid calls agree in value where the routes
        are exact.  The static shortfall joins the routes at t = 0."""
        n = data.draw(st.integers(2, 12))
        lat = BrownianLattice(n, 1.0)
        dx = data.draw(st.integers(0, n))
        times = st.sampled_from(lat.times + (0.37,))
        t, u = data.draw(times), data.draw(times)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        X = RandomVariable(lat, dx, rng.uniform(-1.0, 1.0, dx + 1))
        loss = LossSpec(data.draw(st.floats(0.0, 1.0)),
                        QParams(q=data.draw(st.floats(0.3, 1.0)),
                                alpha_q=data.draw(st.floats(0.0, 0.5))))
        schedule = HorizonSchedule.constant(data.draw(st.floats(0.0, 0.4)))
        spec = hq_shortfall_spec(loss.qparams, loss.beta, schedule)
        losses = -((X + loss.beta).neg_part() + loss.qparams.alpha_q)
        driver = QuadraticQDriver(loss.qparams.q, schedule)
        routes = {
            "h_entropic": lambda: h_entropic(X, t, u, 1.0, schedule),
            "closed_form": lambda: hq_entropic_losses(X, t, u, loss, schedule),
            "bsde": lambda: g_risk_measure(lat, driver, losses, t, u),
            "dynamic": lambda: dynamic_shortfall(X, t, spec, u),
            "acceptance": lambda: acceptance_member(X, 0.0, spec, t, u),
        }
        if t == 0.0:
            routes["static"] = lambda: static_shortfall(X, spec, u=u)
        outcomes = {}
        for name, route in routes.items():
            try:
                outcomes[name] = route()
            except TimeGridError:
                outcomes[name] = None
        valid = {name: out is not None for name, out in outcomes.items()}
        assert len(set(valid.values())) == 1, valid
        if not valid["closed_form"]:
            return
        closed = outcomes["closed_form"].values
        np.testing.assert_allclose(outcomes["dynamic"].values, closed,
                                   rtol=0.0, atol=1e-7)
        if "static" in outcomes:
            assert outcomes["static"] == pytest.approx(closed[0], abs=1e-7)
        for shift, member in ((1e-6, 1.0), (-1e-6, 0.0)):
            accepted = acceptance_member(X, closed + shift, spec, t, u)
            assert np.all(accepted.values == member)
