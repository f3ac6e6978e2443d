import numpy as np
import pytest

from horizonrisk import (AggregatorFn, AxiomReport, BrownianLattice,
                         DomainError, GenericLipschitzDriver, HorizonSchedule,
                         LinearDriver, LossSpec, QParams, QuadraticQDriver,
                         RandomVariable, ShortfallSpec, SolverError,
                         SpecificationError, TargetSchedule, UtilityFn,
                         certainty_equivalent,
                         check_cash_additive, check_cash_subadditive,
                         check_convex, check_h_longevity, check_monotone,
                         check_normalized, check_quasi_convex,
                         check_restriction, discounted_wrap,
                         dynamic_shortfall, entropic, expected_loss,
                         g_risk_measure, h_entropic, h_var,
                         hq_entropic_losses, hq_shortfall_spec,
                         q_entropic_losses, static_shortfall)
from horizonrisk import axioms, bsde, shortfall

from conftest import random_tree

SCHEDULE = HorizonSchedule.constant(0.1)
HQ_SPEC = LossSpec(beta=0.0, qparams=QParams(q=0.5, alpha_q=0.0))


@pytest.fixture
def tree():
    return random_tree(42, depth=3, times=[0.0, 0.25, 0.5, 1.0])


def entropic_rho(tree):
    return lambda X: entropic(X, 0.0, 1.0)


def hq_rho(tree, t=0.0, u=1.0):
    return lambda X: hq_entropic_losses(X, t, u, HQ_SPEC, SCHEDULE)


class TestEntropicPassesEverything:
    def test_cash_additive(self, tree):
        report = check_cash_additive(entropic_rho(tree), tree)
        assert report.passed
        assert report.witness is None

    def test_cash_subadditive_with_zero_slack(self, tree):
        report = check_cash_subadditive(entropic_rho(tree), tree)
        assert report.passed
        assert abs(report.worst_slack) <= 1e-8  # additive: slack exactly 0

    def test_monotone_convex_quasi_convex(self, tree):
        rho = entropic_rho(tree)
        assert check_monotone(rho, tree).passed
        assert check_convex(rho, tree).passed
        assert check_quasi_convex(rho, tree).passed

    def test_normalized(self, tree):
        assert check_normalized(entropic_rho(tree), tree).passed

    def test_restriction_of_the_family(self, tree):
        family = lambda X, t, u: entropic(X, t, 1.0)
        assert check_restriction(family, tree).passed


class TestHqEntropicProfile:
    def test_fails_cash_additivity_with_reproducible_witness(self, tree):
        rho = hq_rho(tree)
        report = check_cash_additive(rho, tree)
        assert not report.passed
        w = report.witness
        assert w is not None
        X = RandomVariable(tree, 3, w["x"])
        gap = rho(X + w["m"]).values[w["node"]] \
            - rho(X).values[w["node"]] + w["m"]
        assert abs(gap) == pytest.approx(-report.worst_slack, abs=1e-12)
        assert abs(gap) > 1e-8

    def test_passes_cash_subadditivity(self, tree):
        assert check_cash_subadditive(hq_rho(tree), tree).passed

    def test_passes_monotonicity_and_quasi_convexity(self, tree):
        assert check_monotone(hq_rho(tree), tree).passed
        assert check_quasi_convex(hq_rho(tree), tree).passed

    def test_fails_normalization_with_horizon_premium(self, tree):
        report = check_normalized(hq_rho(tree), tree)
        assert not report.passed
        # rho(0) = alpha_q + A(0, 1) = 0.1
        assert report.witness["rho_zero"][0] == pytest.approx(0.1, abs=1e-12)

    def test_passes_h_longevity(self, tree):
        family = lambda X, t, u: hq_entropic_losses(X, t, u, HQ_SPEC, SCHEDULE)
        assert check_h_longevity(family, tree).passed

    def test_q_entropic_without_alpha_is_normalized(self, tree):
        rho = lambda X: q_entropic_losses(X, 0.0, HQ_SPEC)
        assert check_normalized(rho, tree).passed


class TestHEntropicRestrictionFailure:
    def test_fails_restriction_with_horizon_gap_witness(self, tree):
        family = lambda X, t, u: h_entropic(X, t, u, 1.0, SCHEDULE)
        report = check_restriction(family, tree)
        assert not report.passed
        w = report.witness
        gap = SCHEDULE.integral(w["u"], w["v"])
        assert -report.worst_slack == pytest.approx(gap, abs=1e-10)

    def test_passes_longevity(self, tree):
        family = lambda X, t, u: h_entropic(X, t, u, 1.0, SCHEDULE)
        assert check_h_longevity(family, tree).passed


class TestConstructedCounterexamples:
    def test_leaky_translation_fails_cash_subadditivity(self, tree):
        # scales losses by 1.5: translating cash leaks half the shift
        rho = lambda X: expected_loss(X, 0.0) * 1.5
        report = check_cash_subadditive(rho, tree)
        assert not report.passed
        assert report.witness["m"] > 0.0

    def test_non_quasi_convex_functional_fails(self, tree):
        rho = lambda X: expected_loss(X, 0.0).apply(lambda v: -np.abs(v))
        report = check_quasi_convex(rho, tree)
        assert not report.passed
        assert "lambda" in report.witness

    def test_non_monotone_functional_fails(self, tree):
        rho = lambda X: expected_loss(X, 0.0).apply(np.abs)
        assert not check_monotone(rho, tree).passed


class TestOtherMeasures:
    def test_h_var_is_cash_additive(self, tree):
        rho = lambda X: h_var(X, 0.0, 0.1)
        assert check_cash_additive(rho, tree).passed

    def test_certainty_equivalent_quasi_convex(self, tree):
        rho = lambda X: certainty_equivalent(X, 0.0,
                                             UtilityFn.neg_exponential(0.8))
        assert check_quasi_convex(rho, tree).passed

    def test_discounted_wrap_cash_subadditive_with_positive_slack(self, tree):
        rng = np.random.default_rng(9)
        D = RandomVariable(tree, 3,
                           rng.uniform(0.3, 0.95, tree.num_nodes(3)))
        rho = lambda X: discounted_wrap(
            lambda Z, t: entropic(Z, t, 1.0), D, X, 0.0, 1.0)
        report = check_cash_subadditive(rho, tree)
        assert report.passed


class TestReportMechanics:
    def test_reports_are_deterministic_given_seed(self, tree):
        rho = hq_rho(tree)
        a = check_cash_additive(rho, tree, seed=7)
        b = check_cash_additive(rho, tree, seed=7)
        assert a == b

    def test_different_seed_changes_samples_not_verdict(self, tree):
        rho = entropic_rho(tree)
        a = check_convex(rho, tree, seed=1)
        b = check_convex(rho, tree, seed=2)
        assert a.passed and b.passed

    def test_report_serializes_to_json_dict(self, tree):
        report = check_normalized(hq_rho(tree), tree)
        data = report.to_json_dict()
        assert set(data) == {"axiom", "passed", "worst_slack", "samples",
                             "witness"}
        assert isinstance(report, AxiomReport)

    def test_table_holds_the_public_checkers(self):
        # riskctl dispatches through CHECKERS, so it must hold the very
        # objects that the module exports under check_<name>
        for name, check in axioms.CHECKERS.items():
            assert getattr(axioms, f"check_{name}") is check
        assert len(axioms.CHECKERS) == 8
        assert axioms.SWEEPS == {"restriction", "h_longevity"}


def _six_then_slice(model, depth, samples, rng):
    """The sampled positions as first built: six fixed ones (fewer on a
    layer of one or two nodes), then draws up to ``samples``, then a
    slice."""
    n = model.num_nodes(depth)
    xs = [model.constant(c, depth) for c in (-2.0, 0.0, 1.5)]
    for j in range(min(n, 3)):
        spike = np.zeros(n)
        spike[j * (n - 1) // max(1, min(n, 3) - 1) if n > 1 else 0] = \
            3.0 * (-1) ** j
        xs.append(RandomVariable(model, depth, spike))
    while len(xs) < samples:
        xs.append(RandomVariable(model, depth, rng.uniform(-3.0, 3.0, size=n)))
    return xs[:samples]


class TestSamplePositions:
    """Only the returned positions are built; the list and the draws are
    those of building six and slicing."""

    @pytest.mark.parametrize("samples", [1, 2, 4, 7, 9])
    @pytest.mark.parametrize("case", ["lattice", "tree"])
    def test_list_and_rng_state_match_six_then_slice(self, samples, case,
                                                     tree):
        model = BrownianLattice(6, 1.0) if case == "lattice" else tree
        for depth in range(model.terminal_depth + 1):
            rng, ref_rng = (np.random.default_rng(11),
                            np.random.default_rng(11))
            xs = axioms._sample_positions(model, depth, samples, rng)
            ref = _six_then_slice(model, depth, samples, ref_rng)
            assert len(xs) == len(ref) == samples
            for X, R in zip(xs, ref):
                assert X.depth == R.depth == depth
                assert np.array_equal(X.values, R.values)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _unmemoized_sweep(axiom, rho_family, model, samples, seed):
    """The time sweep with two rho calls per grid triple and position, as
    the sweep ran before it kept rho_tu(X) per (X, t, u); also returns the
    distinct (X, t, u) it evaluated and the number of cases."""
    slack = {"restriction": lambda rv, ru: -np.abs(rv - ru),
             "h_longevity": lambda rv, ru: rv - ru}[axiom]
    rng = np.random.default_rng(seed)
    rows, distinct = [], set()
    for t, u, v in axioms._time_triples(model):
        for X in axioms._sample_positions(model, model.depth_of(u), samples,
                                          rng):
            per_node = slack(rho_family(X, t, v).values,
                             rho_family(X, t, u).values)
            node = int(np.argmin(per_node))
            rows.append((float(per_node[node]),
                         {"x": X.values.tolist(), "t": t, "u": u, "v": v,
                          "node": node}))
            distinct.add((X.values.tobytes(), t, u))
    worst, witness = min(rows, key=lambda r: r[0])
    passed = worst >= -axioms.TOLERANCE
    report = AxiomReport(axiom, bool(passed), worst, len(rows),
                         None if passed else witness)
    return report, distinct, len(rows)


class TestSweepMemo:
    """The sweep evaluates each distinct rho_tu(X) once; its reports are
    those of the plain two-calls-per-case loop.  A BSDE family runs one
    backward pass per (X, u, v) within a sweep; its reports and errors are
    those of a new pass per call, and no pass outlives its position or the
    check."""

    LATTICE = BrownianLattice(5, 1.0)
    Q_DRIVER = QuadraticQDriver(0.8, HorizonSchedule.constant(0.3))

    def q_bsde(self, X, t, u):
        return g_risk_measure(self.LATTICE, self.Q_DRIVER, X, t, u)

    @pytest.mark.parametrize("axiom", sorted(axioms.SWEEPS))
    @pytest.mark.parametrize("case", ["q_bsde_lattice", "hq_tree"])
    def test_reports_equal_the_unmemoized_loop(self, axiom, case, tree):
        if case == "q_bsde_lattice":
            family, model, samples = self.q_bsde, self.LATTICE, 2
        else:  # 9 samples: three random positions after the six fixed ones
            family, model, samples = (
                lambda X, t, u: hq_entropic_losses(X, t, u, HQ_SPEC,
                                                   SCHEDULE),
                tree, 9)
        calls = []

        def counted(X, t, u):
            calls.append((t, u))
            return family(X, t, u)

        report = axioms.CHECKERS[axiom](counted, model, samples=samples,
                                        seed=3)
        reference, distinct, cases = _unmemoized_sweep(axiom, family, model,
                                                       samples, 3)
        assert report == reference
        assert len(calls) == cases + len(distinct) < 2 * cases

    # The battery of one-pass sweeps: the reference family copies X on
    # every call, so no kept pass is ever read.
    DRIVERS = {
        "q": QuadraticQDriver(0.8, HorizonSchedule.constant(0.2)),
        "entropic": QuadraticQDriver.entropic(),
        "linear": LinearDriver.from_constants(0.3, 0.2, 0.1),
        "generic": GenericLipschitzDriver(
            lambda t, y, z: 0.3 * np.abs(z) + 0.1 * np.tanh(y) + 0.2, 0.5),
    }

    @staticmethod
    def families(lattice, driver):
        kept = lambda X, t, u: g_risk_measure(lattice, driver, X, t, u)
        copied = lambda X, t, u: g_risk_measure(
            lattice, driver, RandomVariable(lattice, X.depth, X.values.copy()),
            t, u)
        return kept, copied

    @pytest.mark.parametrize("samples", [2, 6, 8])
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_one_pass_per_horizon_gives_the_reports_of_new_passes(
            self, driver, n, samples):
        lattice = BrownianLattice(n, 1.0)
        kept, copied = self.families(lattice, self.DRIVERS[driver])
        for axiom in sorted(axioms.SWEEPS):
            check = axioms.CHECKERS[axiom]
            assert check(kept, lattice, samples=samples, seed=5) == \
                check(copied, lattice, samples=samples, seed=5)

    def test_a_failing_pass_raises_in_the_same_call(self):
        # uniform [-3, 3] positions drive the entropic scheme to +inf/NaN
        lattice = BrownianLattice(20, 1.0)
        outcomes = []
        for family in self.families(lattice, self.DRIVERS["entropic"]):
            calls = []

            def counted(X, t, u):
                calls.append((t, u))
                return family(X, t, u)

            with np.errstate(all="ignore"), \
                    pytest.raises(SolverError) as err:
                check_h_longevity(counted, lattice, samples=8, seed=5)
            outcomes.append((type(err.value), str(err.value), calls))
        assert outcomes[0] == outcomes[1]
        assert "not finite at depth 0" in outcomes[0][1]

    @pytest.mark.parametrize("axiom", sorted(axioms.SWEEPS))
    @pytest.mark.parametrize("driver, error, message, call", [
        # the +3 spike leaves the domain: 1 + (1 - 0.5) (-3) = -0.5
        (QuadraticQDriver(0.5, HorizonSchedule.constant(0.2)), DomainError,
         "quadratic driver outside its domain: 1 + (1-q) y reached -0.5",
         7),
        # Lipschitz 162 in y with C = 5.4: the fixed point cannot converge
        (GenericLipschitzDriver(lambda t, y, z: 0.9 * 6 * np.cos(30 * y),
                                5.4), SolverError,
         "implicit step at t=0.8333333333333334 did not converge within 100 "
         "iterations (residual 1.820e-01) (node 0)", 1),
    ], ids=["q_domain", "generic_no_convergence"])
    def test_a_group_pass_that_raises_gives_the_error_of_own_passes(
            self, axiom, driver, error, message, call):
        """The positions of a triple share one pass; where it raises, the
        error, its message and the call that raises it are those of one
        pass per position."""
        lattice = BrownianLattice(6, 1.0)
        calls = []

        def counted(X, t, u):
            calls.append((t, u))
            return g_risk_measure(lattice, driver, X, t, u)

        with pytest.raises(error) as err:
            axioms.CHECKERS[axiom](counted, lattice, samples=6, seed=0)
        assert str(err.value) == message
        assert len(calls) == call

    def test_reads_are_copies_and_nothing_outlives_a_check(self):
        lattice = BrownianLattice(6, 1.0)
        driver = self.DRIVERS["q"]
        kept, copied = self.families(lattice, driver)

        def scribbling(X, t, u):
            rho = kept(X, t, u)
            values = rho.values.copy()
            rho.values[:] = 99.0
            return RandomVariable(lattice, rho.depth, values)

        for axiom in sorted(axioms.SWEEPS):
            check = axioms.CHECKERS[axiom]
            assert check(scribbling, lattice, samples=2, seed=1) == \
                check(copied, lattice, samples=2, seed=1)
        assert bsde._PASSES.get() is None
        X = RandomVariable(lattice, 3, np.tanh(lattice.brownian(3)))
        with bsde._kept_passes():
            first = g_risk_measure(lattice, driver, X, 0.0, 1.0)
            want = first.values.copy()
            first.values += 1.0
            assert np.array_equal(
                g_risk_measure(lattice, driver, X, 0.0, 1.0).values, want)
        assert bsde._PASSES.get() is None

    def test_no_pass_of_a_drawn_position_outlives_its_triple(self):
        lattice, samples = BrownianLattice(5, 1.0), 8
        kept, _ = self.families(lattice, self.DRIVERS["q"])
        fixed_values = [-3.0, -2.0, 0.0, 1.5, 3.0]
        drawn, alive = set(), []

        def watched(X, t, u):
            if not np.isin(X.values, fixed_values).all():
                drawn.add(X.values.tobytes())
            alive.append(sum(not np.isin(Y.values, fixed_values).all()
                             for Y in bsde._PASSES.get().keys()))
            return kept(X, t, u)

        check_h_longevity(watched, lattice, samples=samples, seed=2)
        # a triple draws samples - 4 positions at most (one node, four
        # fixed ones); the kept passes hold no more than one triple's draws
        assert len(drawn) > 50
        assert max(alive) <= samples - 4


def _copy(X):
    return RandomVariable(X.model, X.depth, X.values.copy())


def _fresh(rho):
    """A rho that solves a fresh copy of its position, which no stack
    holds, so every call is one position's own solve."""
    return lambda X: rho(_copy(X))


class TestStackedShortfall:
    """A point check evaluates its distinct positions in one stack, and the
    shortfall solves every stacked position at once; each report and each
    error is that of one solve per call."""

    SPECS = {
        "exp_bounded": lambda: ShortfallSpec.classic(
            UtilityFn.exp_bounded(1.0), 0.1),
        "scaled_additive": lambda: ShortfallSpec(
            UtilityFn.exp_bounded(0.8), AggregatorFn.scaled_additive(0.6),
            TargetSchedule.constant(-0.2)),
        "exponential": lambda: ShortfallSpec(
            UtilityFn.linear(), AggregatorFn.exponential(0.4),
            TargetSchedule.constant(0.2)),
        "hq": lambda: hq_shortfall_spec(QParams(q=0.7, alpha_q=0.1), 0.2,
                                        HorizonSchedule.constant(0.3)),
    }
    MODELS = {
        "tree": lambda: random_tree(3, depth=3),
        "lattice": lambda: BrownianLattice(8, 1.0),
    }
    POINT_CHECKS = sorted(set(axioms.CHECKERS) - axioms.SWEEPS)

    def assert_reports_equal(self, rho, model, depth):
        for name in self.POINT_CHECKS:
            check = axioms.CHECKERS[name]
            assert check(rho, model, samples=6, depth=depth, seed=4) == \
                check(_fresh(rho), model, samples=6, depth=depth, seed=4)

    @pytest.mark.parametrize("kt", [0, 2])
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("spec", sorted(SPECS))
    def test_reports_equal_one_solve_per_call(self, spec, model, kt):
        spec, model = self.SPECS[spec](), self.MODELS[model]()
        t = model.times[kt]
        self.assert_reports_equal(lambda X: dynamic_shortfall(X, t, spec),
                                  model, model.terminal_depth)

    @pytest.mark.parametrize("route", ["new_spec_per_call", "static"])
    def test_other_routes_equal_one_solve_per_call(self, route):
        model, spec_of = random_tree(3, depth=3), self.SPECS["hq"]
        if route == "static":
            spec = spec_of()
            rho = lambda X: RandomVariable(model, 0, [float(
                static_shortfall(X, spec))])
        else:
            rho = lambda X: dynamic_shortfall(X, model.times[1], spec_of())
        self.assert_reports_equal(rho, model, 2)

    @pytest.mark.parametrize("new_spec_per_call", [False, True])
    def test_one_stacked_solve_per_check(self, monkeypatch,
                                         new_spec_per_call):
        model, spec_of = random_tree(3, depth=3), self.SPECS["scaled_additive"]
        spec = spec_of()
        solved = []
        real = shortfall._solve
        monkeypatch.setattr(shortfall, "_solve",
                            lambda xs, *args: solved.append(len(xs))
                            or real(xs, *args))
        calls = []

        def rho(X):
            calls.append(X)
            return dynamic_shortfall(X, 0.0, spec_of() if new_spec_per_call
                                     else spec)

        check_convex(rho, model, samples=7, seed=1)
        # seven pairs (X, Y), each with three mixtures, are 35 positions;
        # a spec that only a later call asks for is solved alone
        assert solved == [35] + [1] * 34 * new_spec_per_call
        assert len(calls) == 35
        assert shortfall._STACK.get() is None

    @pytest.mark.parametrize("cells", [10, 100, 1_000])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_stacked_blocks_change_no_value(self, monkeypatch, model, cells):
        # from row blocks of one position (the law has 27 or more cells) to
        # several positions per block
        model, spec = self.MODELS[model](), self.SPECS["hq"]()
        depth = model.terminal_depth
        xs = axioms._sample_positions(model, depth, 9,
                                      np.random.default_rng(0))
        t = model.times[2]
        alone = [dynamic_shortfall(X, t, spec).values for X in xs]
        monkeypatch.setattr(shortfall, "_PROBE_CELLS", cells)
        with shortfall._stacked(xs):
            for X, want in zip(xs, alone):
                assert np.array_equal(dynamic_shortfall(X, t, spec).values,
                                      want)

    @staticmethod
    def dropping_spec():
        # non-decreasing on the 50 x 50 check grid, but the constraint
        # drops by 20 once m passes 6
        f = AggregatorFn(fn=lambda y, m: y + np.where(m > 6.0, m - 20.0, m),
                         name="drops past 6")
        return ShortfallSpec(UtilityFn.linear(), f,
                             TargetSchedule.constant(0.5))

    def test_a_dropping_position_raises_its_own_error(self):
        model, spec = random_tree(5, depth=2), self.dropping_spec()
        n = model.num_nodes(2)
        # bracket starts 1 + 2 (max|X| + 0.5): 3, 8 (its probes at -8 and 8
        # cross the drop) and 5
        xs = [model.constant(0.5, 2),
              RandomVariable(model, 2, np.full(n, 3.0)),
              model.constant(-1.5, 2)]
        alone = []
        for X in xs:
            try:
                alone.append(dynamic_shortfall(_copy(X), 0.5, spec).values)
            except SpecificationError as err:
                alone.append(str(err))
        assert [isinstance(a, str) for a in alone] == [False, True, False]
        with shortfall._stacked(xs):
            for X, want in zip(xs, alone):
                if isinstance(want, str):
                    with pytest.raises(SpecificationError) as err:
                        dynamic_shortfall(X, 0.5, spec)
                    assert str(err.value) == want
                else:
                    assert np.array_equal(
                        dynamic_shortfall(X, 0.5, spec).values, want)

    def test_a_checker_raises_the_error_of_one_solve_per_call(self):
        model, spec = random_tree(5, depth=2), self.dropping_spec()
        rho = lambda X: dynamic_shortfall(X, 0.0, spec)
        errors = []
        for each in (rho, _fresh(rho)):
            with pytest.raises(SpecificationError) as err:
                check_monotone(each, model, samples=4, seed=2)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert "not non-decreasing in m" in errors[0]


class TestSentinelSlacks:
    """rho = +inf everywhere meets every inequality in extended reals; a
    NaN slack is inf - inf, read as 0, with no warning."""

    SPEC = ShortfallSpec(UtilityFn.linear(), AggregatorFn.exponential(0.5),
                         TargetSchedule.constant(1.5))

    @pytest.mark.parametrize("name", ["monotone", "cash_subadditive",
                                      "cash_additive", "convex",
                                      "quasi_convex"])
    def test_plus_inf_everywhere_passes_with_zero_slack(self, name):
        model = random_tree(7, depth=2)
        rho = lambda X: dynamic_shortfall(X, 0.0, self.SPEC)
        assert np.isposinf(rho(model.constant(0.0, 2)).values).all()
        report = axioms.CHECKERS[name](rho, model, samples=6, seed=7)
        assert report.passed and report.worst_slack == 0.0

    def test_normalized_still_fails_with_minus_inf(self):
        model = random_tree(7, depth=2)
        report = check_normalized(
            lambda X: dynamic_shortfall(X, 0.0, self.SPEC), model)
        assert not report.passed and report.worst_slack == -np.inf


class TestSampleCount:
    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("name", sorted(set(axioms.CHECKERS)
                                            - {"normalized"}))
    def test_fewer_than_one_sample_is_a_domain_error(self, name, samples,
                                                     tree):
        if name in axioms.SWEEPS:
            rho = lambda X, t, u: entropic(X, t, 1.0)
        else:
            rho = entropic_rho(tree)
        with pytest.raises(DomainError, match=f"{name} needs samples >= 1"):
            axioms.CHECKERS[name](rho, tree, samples=samples)

    def test_normalized_ignores_samples(self, tree):
        assert check_normalized(entropic_rho(tree), tree, samples=0).passed
