import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonrisk import bsde
from horizonrisk import (BrownianLattice, ConfigurationError, DomainError,
                         GenericLipschitzDriver,
                         HorizonSchedule, LinearDriver, QuadraticQDriver,
                         RandomVariable, SolverError, StepFunction,
                         TimeGridError, entropic, expected_loss,
                         g_risk_measure, longevity_girsanov,
                         quadratic_transform_solve, restriction_check,
                         solve_bsde, solve_family)
from horizonrisk.bsde import (_implicit_step, _kept_passes, _pass, _passes,
                              _share_passes)


def sign_payoff(lattice, scale=0.75, threshold=0.1, depth=None):
    depth = lattice.terminal_depth if depth is None else depth
    b = lattice.brownian(depth)
    return RandomVariable(lattice, depth,
                          np.where(b >= threshold, scale, -scale))


class TestBackwardScheme:
    def test_zero_driver_is_conditional_expectation(self):
        lat = BrownianLattice(16, 1.0)
        X = sign_payoff(lat)
        rho = g_risk_measure(lat, LinearDriver.from_constants(), X, 0.0, 1.0)
        np.testing.assert_allclose(rho.values, expected_loss(X, 0.0).values,
                                   atol=1e-12)

    def test_constant_driver_telescopes(self):
        lat = BrownianLattice(10, 1.0)
        X = sign_payoff(lat)
        c0 = 0.37
        driver = LinearDriver.from_constants(c=c0)
        for t in (0.0, 0.5):
            rho = g_risk_measure(lat, driver, X, t, 1.0)
            expected = expected_loss(X, t) + c0 * (1.0 - t)
            np.testing.assert_allclose(rho.values, expected.values,
                                       atol=1e-11)

    def test_terminal_layer_is_exact_and_residuals_tiny(self):
        lat = BrownianLattice(12, 1.0)
        term = RandomVariable(lat, 12, np.tanh(lat.brownian(12)))
        driver = QuadraticQDriver(q=0.6)
        sol = solve_bsde(lat, driver, term)
        assert [Y.depth for Y in sol.Y] == list(range(13))
        assert [Z.depth for Z in sol.Z] == list(range(12))
        assert all(V.model is lat for V in sol.Y + sol.Z)
        np.testing.assert_allclose(sol.Y[12].values, term.values, atol=0.0)
        for k in range(12):
            y, z = sol.Y[k].values, sol.Z[k].values
            residual = y - lat.step_expectation(sol.Y[k + 1].values, k) \
                - driver(lat.times[k], y, z) * lat.dt(k)
            assert np.max(np.abs(residual)) <= 1e-10

    def test_entropic_driver_converges_to_closed_form(self):
        errs = []
        for n in (8, 16, 32, 64):
            lat = BrownianLattice(n, 1.0)
            X = sign_payoff(lat)
            rho = g_risk_measure(lat, QuadraticQDriver.entropic(), X, 0.0, 1.0)
            ref = entropic(X, 0.0, 1.0)
            errs.append(abs(rho.values[0] - ref.values[0]))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 5e-3

    @pytest.mark.parametrize("driver", [
        QuadraticQDriver.entropic(),
        LinearDriver.from_constants(mu=-0.4, nu=0.3, c=0.1),
        QuadraticQDriver(q=0.5),
    ])
    def test_comparison_principle(self, driver):
        lat = BrownianLattice(12, 1.0)
        rng = np.random.default_rng(17)
        t1 = RandomVariable(lat, 12, rng.uniform(0.0, 1.0, 13))
        t2 = t1 + RandomVariable(lat, 12, rng.uniform(0.0, 1.0, 13))
        y1 = solve_bsde(lat, driver, t1).Y
        y2 = solve_bsde(lat, driver, t2).Y
        for k in range(13):
            assert np.all(y1[k].values <= y2[k].values + 1e-9)

    def test_depth_zero_terminal_is_its_own_solution(self):
        lat = BrownianLattice(4, 1.0)
        term = lat.constant(0.3, 0)
        sol = solve_bsde(lat, QuadraticQDriver(q=0.5), term)
        assert sol.Y == (term,) and sol.Z == ()

    def test_fixed_point_that_does_not_settle_names_the_node(self):
        # C = 0.5 passes the contraction precheck (dt C = 0.125), but the
        # true y-slope 50 makes each iterate 12.5 times the last
        lat = BrownianLattice(4, 1.0)
        driver = GenericLipschitzDriver(g=lambda t, y, z: 50.0 * y,
                                        lipschitz_constant=0.5)
        term = RandomVariable(lat, 4, [0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SolverError, match=r"t=0\.75 did not converge.*"
                                              r"\(node 3\)$") as info:
            solve_bsde(lat, driver, term)
        assert info.value.node == 3

    def test_contraction_precheck(self):
        lat = BrownianLattice(2, 1.0)  # dt = 0.5
        driver = GenericLipschitzDriver(g=lambda t, y, z: 3.0 * y,
                                        lipschitz_constant=3.0)
        with pytest.raises(ConfigurationError):
            solve_bsde(lat, driver, RandomVariable(lat, 2, [0.0, 1.0, 2.0]))

    def test_contraction_precheck_covers_the_horizon_steps(self):
        # X resolves at depth 1 of 2 and u = 1: the only fixed-point step
        # of rho_01 is a horizon step (Z = 0), and dt * C = 1.5 >= 1
        lat = BrownianLattice(2, 1.0)
        driver = GenericLipschitzDriver(g=lambda t, y, z: 3.0 * y,
                                        lipschitz_constant=3.0)
        X = RandomVariable(lat, 1, [-1.0, 1.0])
        with pytest.raises(ConfigurationError, match="refine the lattice"):
            g_risk_measure(lat, driver, X, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match="refine the lattice"):
            g_risk_measure(lat, driver, X, 0.0, 1.0)
        # a pass without steps checks nothing
        rho = g_risk_measure(lat, driver, X, 0.5, 0.5)
        assert np.array_equal(rho.values, [1.0, -1.0])

    def test_quadratic_domain_breach(self):
        lat = BrownianLattice(4, 1.0)
        driver = QuadraticQDriver(q=0.5)  # needs y > -2
        bad_terminal = lat.constant(-5.0, 4)
        with pytest.raises(DomainError):
            solve_bsde(lat, driver, bad_terminal)
        with pytest.raises(DomainError, match="must lie in"):
            QuadraticQDriver(q=1.5)

    def test_quadratic_domain_breach_in_the_horizon_steps(self):
        # y = -X = -5 at one node of depth 2: 1 + 0.5 y = -1.5 <= 0 on the
        # layer that enters the Z = 0 steps from u = 1
        lat = BrownianLattice(4, 1.0)
        driver = QuadraticQDriver(0.5, HorizonSchedule.constant(0.2))
        X = RandomVariable(lat, 2, [0.0, 1.0, 5.0])
        with pytest.raises(DomainError, match="reached -1.5"):
            g_risk_measure(lat, driver, X, 0.0, 1.0)
        with pytest.raises(DomainError):
            g_risk_measure(lat, driver, X, 0.5, 0.75)

    def test_quadratic_domain_checked_on_every_entering_layer(self):
        # 1 + 0.5 y = -0.25 at the first node of y = -X; with u = 0.5 no
        # horizon step follows, and the first lattice step's conditional
        # mean is inside the domain, so only the entering layer shows it.
        # The passes with no step at all (t = u = depth(X), and a depth-0
        # terminal) used to return the layer unchecked
        lat = BrownianLattice(4, 1.0)
        driver = QuadraticQDriver(0.5, HorizonSchedule.constant(0.2))
        X = RandomVariable(lat, 2, [2.5, -1.0, -1.0])
        routes = [lambda: g_risk_measure(lat, driver, X, 0.0, 0.5),
                  lambda: solve_bsde(lat, driver, -X),
                  lambda: g_risk_measure(lat, driver, X, 0.0, 1.0),
                  lambda: g_risk_measure(lat, driver, X, 0.5, 0.5),
                  lambda: solve_bsde(lat, driver, lat.constant(-2.5, 0))]
        for route in routes:
            with pytest.raises(DomainError, match="reached -0.25"):
                route()
        for t in (0.0, 0.5):
            with pytest.raises(DomainError):
                quadratic_transform_solve(lat, 0.5, driver.rate, -X, t)

    def test_horizon_before_position_rejected(self):
        lat = BrownianLattice(4, 1.0)
        X = sign_payoff(lat, depth=4)
        with pytest.raises(TimeGridError):
            g_risk_measure(lat, QuadraticQDriver.entropic(), X, 0.0, 0.5)


class TestNormalizationAndRestriction:
    def test_normalized_iff_driver_vanishes_at_origin(self):
        lat = BrownianLattice(8, 1.0)
        zero = lat.constant(0.0, 8)
        # g(t, 0, 0) = 0 for both: normalized to 1e-10
        for driver in (QuadraticQDriver.entropic(),
                       LinearDriver.from_constants(mu=0.5, nu=0.2)):
            rho = solve_bsde(lat, driver, zero).Y[0]
            np.testing.assert_allclose(rho.values, 0.0, atol=1e-10)
        # g(t, 0, 0) = c0 != 0 accumulates exactly c0 * u
        rho_c = solve_bsde(lat, LinearDriver.from_constants(c=0.25),
                           zero).Y[0]
        np.testing.assert_allclose(rho_c.values, 0.25, atol=1e-12)

    def test_interest_rate_example_normalized_and_subadditive(self):
        # g = r y^- + z: decreasing in y, convex, vanishes at the origin
        lat = BrownianLattice(16, 1.0)
        driver = GenericLipschitzDriver(
            g=lambda t, y, z: 0.3 * np.maximum(-y, 0.0) + z,
            lipschitz_constant=1.3,
        )
        zero = lat.constant(0.0, 16)
        rho0 = solve_bsde(lat, driver, zero).Y[0]
        np.testing.assert_allclose(rho0.values, 0.0, atol=1e-10)
        rng = np.random.default_rng(3)
        X = RandomVariable(lat, 16, rng.uniform(-2.0, 2.0, 17))
        base = g_risk_measure(lat, driver, X, 0.0, 1.0)
        for m in (0.1, 1.0, 3.0):
            shifted = g_risk_measure(lat, driver, X + m, 0.0, 1.0)
            assert np.all(shifted.values >= base.values - m - 1e-9)

    def test_restriction_for_z_only_driver(self):
        lat = BrownianLattice(8, 1.0)
        X = sign_payoff(lat, depth=4)
        gap = restriction_check(lat, QuadraticQDriver.entropic(),
                                0.0, 0.5, 1.0, X)
        assert gap <= 1e-12

    def test_restriction_fails_with_constant_offset(self):
        lat = BrownianLattice(8, 1.0)
        X = sign_payoff(lat, depth=4)
        driver = QuadraticQDriver(q=1.0, rate=HorizonSchedule.constant(0.1))
        gap = restriction_check(lat, driver, 0.0, 0.5, 1.0, X)
        assert gap == pytest.approx(0.1 * 0.5, abs=1e-12)

    def test_restriction_for_zero_driver(self):
        lat = BrownianLattice(8, 1.0)
        X = sign_payoff(lat, depth=2)
        gap = restriction_check(lat, LinearDriver.from_constants(),
                                0.25, 0.5, 1.0, X)
        assert gap <= 1e-9


class TestLongevity:
    def test_nonnegative_gamma_for_nonnegative_intercept(self):
        rng = np.random.default_rng(8)
        lat = BrownianLattice(16, 1.0)
        for _ in range(10):
            driver = LinearDriver(
                mu=StepFunction.constant(0.0),
                nu=StepFunction((0.0, 0.5), tuple(rng.uniform(-0.5, 0.5, 2))),
                c=StepFunction((0.0, 0.5), tuple(rng.uniform(0.0, 0.4, 2))),
            )
            X = RandomVariable(lat, 8, rng.uniform(-2.0, 2.0, 9))
            direct, formula = longevity_girsanov(lat, driver, 0.0, 0.5, 1.0, X)
            assert np.all(direct.values >= -1e-9)
            assert np.max(np.abs(direct.values - formula.values)) < 5e-2

    def test_negative_intercept_produces_witness(self):
        lat = BrownianLattice(16, 1.0)
        driver = LinearDriver(
            mu=StepFunction.constant(0.0),
            nu=StepFunction.constant(0.2),
            c=StepFunction((0.0, 0.5), (0.1, -0.3)),
        )
        X = sign_payoff(lat, depth=8)
        direct, formula = longevity_girsanov(lat, driver, 0.0, 0.5, 1.0, X)
        assert np.min(direct.values) < -1e-6
        np.testing.assert_allclose(direct.values, formula.values, atol=1e-9)

    def test_vanishing_integrand(self):
        lat = BrownianLattice(8, 1.0)
        X = sign_payoff(lat, depth=4)
        driver = LinearDriver.from_constants(mu=0.0, nu=0.3, c=0.0)
        direct, formula = longevity_girsanov(lat, driver, 0.0, 0.5, 1.0, X)
        np.testing.assert_allclose(formula.values, 0.0, atol=1e-14)
        np.testing.assert_allclose(direct.values, 0.0, atol=1e-10)

    def test_constant_intercept_both_exact(self):
        lat = BrownianLattice(8, 1.0)
        X = sign_payoff(lat, depth=4)
        driver = LinearDriver.from_constants(c=0.4)
        direct, formula = longevity_girsanov(lat, driver, 0.0, 0.5, 1.0, X)
        np.testing.assert_allclose(direct.values, 0.2, atol=1e-12)
        np.testing.assert_allclose(formula.values, 0.2, atol=1e-14)

    def test_drift_weighting_agreement_on_fine_lattice(self):
        lat = BrownianLattice(64, 1.0)
        X = RandomVariable(lat, 32, np.tanh(lat.brownian(32)))
        driver = LinearDriver.from_constants(mu=0.3, nu=0.4, c=0.15)
        direct, formula = longevity_girsanov(lat, driver, 0.0, 0.5, 1.0, X)
        assert np.max(np.abs(direct.values - formula.values)) < 5e-2

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(mu=st.tuples(*[st.floats(0.2, 0.5) | st.floats(-0.5, -0.2)] * 2),
           nu=st.tuples(*[st.floats(-0.5, 0.5)] * 2),
           c=st.tuples(*[st.floats(-0.4, 0.4)] * 2), scale=st.floats(0.5, 1.5))
    def test_formula_gap_is_first_order_for_nonzero_mu(self, mu, nu, c, scale):
        """With mu != 0 the formula is still the exact linear-BSDE gap, so
        the direct scheme meets it at O(dt): the gap at 4N is at most half
        the gap at N."""
        driver = LinearDriver(*(StepFunction((0.0, 0.5), v)
                                for v in (mu, nu, c)))
        gaps = []
        for n in (16, 64):
            lat = BrownianLattice(n, 1.0)
            X = RandomVariable(lat, n // 2,
                               scale * np.tanh(lat.brownian(n // 2)))
            direct, formula = longevity_girsanov(lat, driver, 0.25, 0.5, 1.0,
                                                 X)
            gaps.append(np.max(np.abs(direct.values - formula.values)))
        assert gaps[1] <= 0.5 * gaps[0]

    def test_nonlinear_driver_rejected(self):
        lat = BrownianLattice(4, 1.0)
        X = sign_payoff(lat, depth=2)
        with pytest.raises(ConfigurationError):
            longevity_girsanov(lat, QuadraticQDriver.entropic(),
                               0.0, 0.5, 1.0, X)


class TestQuadraticTransform:
    @pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
    def test_direct_solve_agrees_with_transform(self, q):
        lat = BrownianLattice(32, 1.0)
        term = RandomVariable(lat, 32, np.abs(lat.brownian(32)))
        direct = solve_bsde(lat, QuadraticQDriver(q=q), term).Y[0]
        transform = quadratic_transform_solve(lat, q, HorizonSchedule.zero(),
                                              term)
        assert abs(direct.values[0] - transform.values[0]) < 1e-2

    @pytest.mark.parametrize("q, rate", [(0.5, 0.0), (0.7, 0.0), (1.0, 0.0),
                                         (1.0, 0.2)])
    def test_scheme_converges_at_first_order_where_exact(self, q, rate):
        """Where the transform solves the q-driver BSDE (q = 1 or a zero
        rate), the gap at 4N is at most half the gap at N."""
        schedule = HorizonSchedule.constant(rate)
        gaps = []
        for n in (16, 64):
            lat = BrownianLattice(n, 1.0)
            term = RandomVariable(lat, n, 0.5 + 0.4 * np.tanh(lat.brownian(n)))
            direct = g_risk_measure(lat, QuadraticQDriver(q, schedule), -term,
                                    0.0, 1.0)
            transform = quadratic_transform_solve(lat, q, schedule, term)
            gaps.append(abs(direct.values[0] - transform.values[0]))
        assert gaps[1] <= 0.5 * gaps[0]

    def test_constant_terminal_with_zero_rate(self):
        lat = BrownianLattice(4, 1.0)
        out = quadratic_transform_solve(lat, 0.5, HorizonSchedule.zero(),
                                        lat.constant(0.8, 4))
        np.testing.assert_allclose(out.values, 0.8, atol=1e-12)

    def test_rate_is_additive_shift_inside_transform(self):
        lat = BrownianLattice(8, 1.0)
        term = RandomVariable(lat, 8, np.abs(lat.brownian(8)))
        sched = HorizonSchedule.constant(0.1)
        with_rate = quadratic_transform_solve(lat, 0.5, sched, term)
        shifted = quadratic_transform_solve(lat, 0.5, HorizonSchedule.zero(),
                                            term + sched.integral(0.0, 1.0))
        np.testing.assert_allclose(with_rate.values, shifted.values,
                                   atol=1e-12)

    def test_two_step_hand_example(self):
        lat = BrownianLattice(2, 1.0)
        term = RandomVariable(lat, 2, np.abs(lat.brownian(2)))
        direct = solve_bsde(lat, QuadraticQDriver(q=0.5), term).Y[0]
        transform = quadratic_transform_solve(lat, 0.5,
                                              HorizonSchedule.zero(), term)
        assert abs(direct.values[0] - transform.values[0]) < 1e-2


class TestSolveFamily:
    def test_constant_family_matches_single_driver(self):
        lat = BrownianLattice(8, 1.0)
        X = sign_payoff(lat, depth=4)
        driver = QuadraticQDriver.entropic()
        family = {0.5: driver, 1.0: driver}
        via_family = solve_family(lat, family, X, 0.0, 0.5)
        direct = g_risk_measure(lat, driver, X, 0.0, 0.5)
        np.testing.assert_allclose(via_family.values, direct.values)

    def test_increasing_family_gives_longevity(self):
        lat = BrownianLattice(8, 1.0)
        rng = np.random.default_rng(5)
        family = {u: LinearDriver.from_constants(nu=0.2, c=0.3 * u)
                  for u in (0.5, 1.0)}
        y, z = rng.uniform(-3.0, 3.0, (2, 100))
        assert np.all(family[0.5](0.25, y, z) <= family[1.0](0.25, y, z))
        for seed in range(5):
            X = RandomVariable(lat, 4,
                               np.random.default_rng(seed).uniform(-2, 2, 5))
            gamma = solve_family(lat, family, X, 0.0, 1.0) \
                - solve_family(lat, family, X, 0.0, 0.5)
            assert np.all(gamma.values >= -1e-9)

    def test_horizon_scaled_constant_family_telescopes(self):
        lat = BrownianLattice(8, 1.0)
        c = 0.4
        family = {u: LinearDriver.from_constants(c=c * u) for u in (0.5, 1.0)}
        zero = lat.constant(0.0, 4)
        gamma = solve_family(lat, family, zero, 0.0, 1.0) \
            - solve_family(lat, family, zero, 0.0, 0.5)
        expected = c * 1.0 * 1.0 - c * 0.5 * 0.5
        np.testing.assert_allclose(gamma.values, expected, atol=1e-12)

    def test_missing_horizon_rejected(self):
        family = {1.0: QuadraticQDriver.entropic()}
        lat = BrownianLattice(4, 1.0)
        with pytest.raises(TimeGridError):
            solve_family(lat, family, sign_payoff(lat, depth=2), 0.0, 0.5)

    def test_horizon_found_within_tolerance(self):
        lat = BrownianLattice(4, 1.0)
        X = sign_payoff(lat, depth=2)
        driver = QuadraticQDriver.entropic()
        near = solve_family(lat, {0.5 + 1e-12: driver}, X, 0.0, 0.5)
        direct = g_risk_measure(lat, driver, X, 0.0, 0.5)
        np.testing.assert_array_equal(near.values, direct.values)
        with pytest.raises(TimeGridError):
            solve_family(lat, {0.5 + 1e-6: driver}, X, 0.0, 0.5)


class TestQuadraticLongevity:
    def test_nonnegative_rate_gives_nonnegative_gamma(self):
        # necessity direction at the sample level: a >= 0 keeps gamma >= 0
        lat = BrownianLattice(16, 1.0)
        rng = np.random.default_rng(77)
        for q in (0.3, 0.6, 0.9):
            driver = QuadraticQDriver(
                q=q, rate=HorizonSchedule(
                    StepFunction((0.0, 0.5),
                                 tuple(rng.uniform(0.0, 0.3, 2)))))
            for _ in range(4):
                X = RandomVariable(lat, 8, rng.uniform(-1.5, 0.5, 9))
                gamma = g_risk_measure(lat, driver, X, 0.0, 1.0) \
                    - g_risk_measure(lat, driver, X, 0.0, 0.5)
                assert np.all(gamma.values >= -1e-9)


class TestInteriorEvaluationTimes:
    def test_girsanov_from_interior_time_with_step_coefficients(self):
        lat = BrownianLattice(64, 1.0)
        X = RandomVariable(lat, 32, np.tanh(lat.brownian(32)))
        driver = LinearDriver(
            mu=StepFunction.constant(0.0),
            nu=StepFunction((0.0, 0.25), (0.2, -0.3)),
            c=StepFunction((0.0, 0.75), (0.1, -0.4)),
        )
        direct, formula = longevity_girsanov(lat, driver, 0.25, 0.5, 1.0, X)
        assert direct.values.shape == (17,)
        # with mu == 0 the formula is the deterministic integral of c and the
        # direct difference telescopes to the same number at every node
        expected = driver.c.integral(0.5, 1.0)
        np.testing.assert_allclose(formula.values, expected, atol=1e-14)
        np.testing.assert_allclose(direct.values, expected, atol=1e-9)

    def test_risk_measure_nodewise_at_interior_time(self):
        lat = BrownianLattice(8, 1.0)
        X = sign_payoff(lat)
        rho = g_risk_measure(lat, QuadraticQDriver.entropic(), X, 0.5, 1.0)
        ref = entropic(X, 0.5, 1.0)
        assert rho.values.shape == ref.values.shape == (5,)
        assert np.max(np.abs(rho.values - ref.values)) < 2e-2


class TestOneBackwardRecursion:
    DRIVERS = (
        QuadraticQDriver.entropic(),
        QuadraticQDriver(0.5, HorizonSchedule.constant(0.3)),
        LinearDriver.from_constants(mu=0.6, nu=0.2, c=0.1),
        GenericLipschitzDriver(lambda t, y, z: 0.5 * np.sin(y) + np.abs(z),
                               1.5),  # dt * C <= 0.75 for N >= 2
    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_stops_at_depth_t_and_composes(self, data):
        n = data.draw(st.integers(2, 12))
        dx = data.draw(st.integers(1, n))
        kt = data.draw(st.integers(0, dx))
        ku = data.draw(st.integers(dx, n))
        driver = data.draw(st.sampled_from(self.DRIVERS))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        lat = BrownianLattice(n, 1.0)
        X = RandomVariable(lat, dx, rng.uniform(-1.0, 1.0, lat.num_nodes(dx)))
        t, s, u = lat.times[kt], lat.times[dx], lat.times[ku]
        solution = solve_bsde(lat, driver, -X)
        assert np.array_equal(g_risk_measure(lat, driver, X, t, s).values,
                              solution.Y[kt].values)
        # flow property: evaluating the tail value at s from t is rho_tu
        inner = g_risk_measure(lat, driver, X, s, u)
        assert np.array_equal(g_risk_measure(lat, driver, X, t, u).values,
                              g_risk_measure(lat, driver, -inner, t, s).values)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_kept_pass_reads_are_new_passes(self, data):
        """Inside a check a call deeper than the kept pass runs a new one;
        every other t reads a copy of its layer, bitwise the value of a new
        pass."""
        n = data.draw(st.integers(2, 10))
        dx = data.draw(st.integers(0, n))
        ku = data.draw(st.integers(dx, n))
        driver = data.draw(st.sampled_from(self.DRIVERS))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        lat = BrownianLattice(n, 1.0)
        X = RandomVariable(lat, dx, rng.uniform(-1.0, 1.0, lat.num_nodes(dx)))
        u = lat.times[ku]
        with _kept_passes():
            kept = [g_risk_measure(lat, driver, X, lat.times[k], u)
                    for k in range(dx, -1, -1)]
            for Y in kept:
                Y.values[:] = np.nan  # a read hands out a copy
            again = [g_risk_measure(lat, driver, X, lat.times[k], u)
                     for k in range(dx + 1)]
        for k, Y in enumerate(again):
            assert Y.depth == k
            assert np.array_equal(
                Y.values, g_risk_measure(lat, driver, X, lat.times[k],
                                         u).values)


    # Its fixed point contracts by dt * 0.9 / cosh(4 y)^2, fastest far from
    # y = 0, and its rate carries the horizon columns across 0, so the
    # columns of one stack stop at different iterations.
    STEEP = GenericLipschitzDriver(
        lambda t, y, z: 0.225 * np.tanh(4.0 * y) + 0.5 * np.abs(z) + 0.3,
        1.4)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_stacked_pass_is_its_one_column_passes(self, data):
        """The pass that stacks the horizons depth(X)..N as columns gives,
        in every column of every layer, bitwise the one-column pass of that
        horizon."""
        n = data.draw(st.integers(2, 12))
        dx = data.draw(st.integers(0, n))
        kt = data.draw(st.integers(0, dx))
        driver = data.draw(st.sampled_from(self.DRIVERS + (self.STEEP,)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        lat = BrownianLattice(n, 1.0)
        X = RandomVariable(lat, dx, rng.uniform(-1.0, 1.0, lat.num_nodes(dx)))
        stack = _pass(lat, driver, X, kt, dx, n)
        assert [layer.shape for layer in stack] == \
            [(lat.num_nodes(k), n - dx + 1) for k in range(kt, dx + 1)]
        for j, ku in enumerate(range(dx, n + 1)):
            own = _pass(lat, driver, X, kt, ku, ku)
            assert len(own) == len(stack)
            for layer, column in zip(stack, own):
                assert np.array_equal(layer[:, j], column[:, 0])


class TestStackedPositions:
    """Inside a sweep the positions registered together share one pass per
    driver, stacked on a positions axis: each column is bitwise its own
    pass, and a column that is not finite raises only at its own read."""

    DRIVERS = {
        "q": QuadraticQDriver(0.8, HorizonSchedule.constant(0.2)),
        "entropic": QuadraticQDriver.entropic(),
        "linear": LinearDriver.from_constants(0.3, 0.2, 0.1),
        "generic": GenericLipschitzDriver(
            lambda t, y, z: 0.225 * np.tanh(4.0 * y) + 0.5 * np.abs(z) + 0.3,
            1.4),
    }

    @staticmethod
    def group(lat, driver, depth, size, seed):
        """``size`` positions at ``depth``; the last of two or more has a
        spike whose Z leaves the floats one lattice step down: -X is 1.7e308
        at one node and, where the driver has no domain to keep, -1.7e308
        at the next."""
        rng = np.random.default_rng(seed)
        xs = [RandomVariable(lat, depth, rng.uniform(-1.0, 1.0, depth + 1))
              for _ in range(size)]
        if size > 1:
            xs[-1].values[depth // 2] = -1.7e308
            if not isinstance(driver, QuadraticQDriver):
                xs[-1].values[depth // 2 + 1] = 1.7e308
        return xs

    @pytest.mark.parametrize("size", [1, 2, 6])
    @pytest.mark.parametrize("n", [4, 7, 10, 13, 16])
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_each_column_is_its_own_pass(self, driver, n, size):
        driver, lat = self.DRIVERS[driver], BrownianLattice(n, 1.0)
        for depth in (n // 2, n - 1):
            xs = self.group(lat, driver, depth, size, seed=n + depth)
            kt = depth // 3
            stack = _passes(lat, driver, xs, kt, depth, n)
            assert [layer.shape for layer in stack] == \
                [(k + 1, size, n - depth + 1) for k in range(kt, depth + 1)]
            for j, X in enumerate(xs):
                own = _pass(lat, driver, X, kt, depth, n)
                for layer, column in zip(stack, own):
                    assert layer[:, j].tobytes() == column.tobytes()
            if size > 1:  # only the spiked column leaves the floats
                finite = np.isfinite(stack[0]).all(axis=0).all(axis=1)
                assert finite.tolist() == [True] * (size - 1) + [False]

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_a_column_that_is_not_finite_raises_at_its_own_read(self,
                                                                 driver):
        driver, lat = self.DRIVERS[driver], BrownianLattice(8, 1.0)
        xs = self.group(lat, driver, 6, 6, seed=1)
        xs.insert(2, xs.pop())  # the spiked position in the middle

        def outcome(X):
            try:
                return g_risk_measure(lat, driver, X, 0.0, 1.0).values
            except SolverError as exc:
                return str(exc)

        own = [outcome(X) for X in xs]
        assert [isinstance(o, str) for o in own] == [False] * 2 + [True] + \
            [False] * 3
        with _kept_passes():
            _share_passes(xs)
            stacked = [outcome(X) for X in xs]
            kept = bsde._PASSES.get()
            assert len({id(kept[X][id(driver)].layers) for X in xs}) == 1
        for a, b in zip(own, stacked):
            assert a == b if isinstance(a, str) else a.tobytes() == b.tobytes()

    def test_a_group_that_raises_is_dissolved(self):
        """A domain error in one column of the stacked pass leaves each
        position to its own pass: the others read their values, and the
        error comes at the bad position's own call."""
        lat = BrownianLattice(6, 1.0)
        driver = QuadraticQDriver(0.5, HorizonSchedule.constant(0.2))
        xs = [lat.constant(c, 3) for c in (-1.0, 0.5, 3.0, 1.0)]
        with _kept_passes():
            _share_passes(xs)
            first = g_risk_measure(lat, driver, xs[0], 0.0, 1.0)
            assert bsde._PASSES.get().group == ()
            assert len(bsde._PASSES.get()) == 1
            second = g_risk_measure(lat, driver, xs[1], 0.0, 1.0)
            with pytest.raises(DomainError, match=r"reached -0\.5$"):
                g_risk_measure(lat, driver, xs[2], 0.0, 1.0)
        for X, rho in zip(xs, (first, second)):
            assert rho.values.tobytes() == \
                g_risk_measure(lat, driver, X, 0.0, 1.0).values.tobytes()


class TestNonFiniteValues:
    def test_a_value_that_is_not_finite_names_its_depth_and_node(self):
        lat = BrownianLattice(4, 1.0)
        X = RandomVariable(lat, 3, [0.0, 1.0, np.inf, 0.0])
        driver = LinearDriver.from_constants()
        with np.errstate(all="ignore"):
            with pytest.raises(SolverError,
                               match=r"not finite at depth 3 \(node 2\)"):
                g_risk_measure(lat, driver, X, 0.75, 1.0)
            with pytest.raises(SolverError,
                               match=r"not finite at depth 0 \(node 0\)"):
                g_risk_measure(lat, driver, X, 0.0, 0.75)
            # solve_bsde names the first layer of its pass that went bad
            with pytest.raises(SolverError,
                               match=r"not finite at depth 2 \(node 1\)"):
                solve_bsde(lat, driver, -X)

    def test_a_rough_terminal_raises_without_warnings(self):
        """The backward passes leave overflow and invalid values to the
        finite check: numpy warns of none of them before the SolverError,
        in one column or in a stack of five, nor of an infinite terminal
        value."""
        driver = QuadraticQDriver.entropic()
        draw = np.random.default_rng(0).uniform(-3.0, 3.0, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lat = BrownianLattice(16, 1.0)
            X = RandomVariable(lat, 16, draw)
            with pytest.raises(SolverError, match="not finite at depth 0"):
                g_risk_measure(lat, driver, X, 0.0, 1.0)
            with pytest.raises(SolverError, match="not finite at depth 1"):
                solve_bsde(lat, driver, -X)
            lat = BrownianLattice(20, 1.0)
            X = RandomVariable(lat, 16, draw)
            with _kept_passes(), \
                    pytest.raises(SolverError, match="not finite at depth 0"):
                g_risk_measure(lat, driver, X, 0.0, 1.0)
            # an infinite value meets the entering layer's domain check
            lat = BrownianLattice(4, 1.0)
            X = RandomVariable(lat, 3, [0.0, 1.0, np.inf, 0.0])
            with pytest.raises(SolverError, match="not finite at depth 0"):
                g_risk_measure(lat, driver, X, 0.0, 1.0)
            # and stops the generic fixed point instead of running it out
            generic = GenericLipschitzDriver(
                lambda t, y, z: 0.3 * np.abs(z) + 0.1 * np.tanh(y) + 0.2, 0.4)
            with pytest.raises(SolverError,
                               match=r"not finite at depth 0 \(node 0\)"):
                g_risk_measure(lat, generic, X, 0.0, 1.0)
            with pytest.raises(SolverError,
                               match=r"not finite at depth 2 \(node 1\)"):
                solve_bsde(lat, generic, X)

    @pytest.mark.parametrize("n", [16, 20])
    def test_rough_terminals_give_finite_values_or_raise(self, n):
        """Uniform [-3, 3] terminals drive the entropic scheme past +inf on
        some lattices; each route returns finite values or raises, with a
        kept pass and without one alike."""
        lat = BrownianLattice(n, 1.0)
        driver = QuadraticQDriver.entropic()
        rng = np.random.default_rng(0)

        def outcome(X, t):
            try:
                values = g_risk_measure(lat, driver, X, t, 1.0).values
            except SolverError as exc:
                assert "not finite at depth" in str(exc)
                return str(exc)
            assert np.isfinite(values).all()
            return values.tobytes()

        raised = 0
        with np.errstate(all="ignore"):
            for _ in range(200):
                X = RandomVariable(lat, n, rng.uniform(-3.0, 3.0, n + 1))
                new = [outcome(X, t) for t in (0.0, 0.5)]
                with _kept_passes():
                    assert [outcome(X, t) for t in (0.0, 0.5)] == new
                try:
                    solution = solve_bsde(lat, driver, -X)
                except SolverError:
                    raised += 1
                    continue
                assert all(np.isfinite(Y.values).all() for Y in solution.Y)
        assert raised > 0


def _reference_rho(lat, driver, X, kt, ku):
    """rho_tu(X) by one implicit step per depth, with Z = 0 past depth(X)."""
    y = -X.values
    for k in range(ku - 1, kt - 1, -1):
        e_part, z = y, np.zeros_like(y)
        if k < X.depth:
            e_part, z = lat.step_expectation(y, k), lat.step_z(y, k)
        y = _implicit_step(driver, lat.times[k], e_part, z, lat.dt(k))
    return y


class TestClosedFormHorizonSteps:
    """Past depth(X) a q-quadratic driver steps by y + a(t) dt, bitwise the
    value of the implicit step there."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_the_implicit_step_at_every_depth(self, data):
        n = data.draw(st.integers(1, 32))
        dx = data.draw(st.integers(0, n))
        kt = data.draw(st.integers(0, dx))
        ku = data.draw(st.integers(dx, n))
        q = data.draw(st.one_of(st.just(1.0),
                                st.floats(0.0, 1.0, exclude_min=True)))
        cut = data.draw(st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True))
        rates = data.draw(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
        driver = QuadraticQDriver(
            q, HorizonSchedule(StepFunction((0.0, cut), rates)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        lat = BrownianLattice(n, 1.0)
        # X in [-1, 1] keeps 1 + (1-q) y > 0 for every q in (0, 1]
        X = RandomVariable(lat, dx, rng.uniform(-1.0, 1.0, lat.num_nodes(dx)))
        rho = g_risk_measure(lat, driver, X, lat.times[kt], lat.times[ku])
        assert rho.depth == kt
        assert np.array_equal(rho.values,
                              _reference_rho(lat, driver, X, kt, ku))


class TestStackedFixedPoint:
    """The generic implicit step on a (nodes, horizons) stack: each column
    iterates as its own layer would."""

    def test_each_column_stops_on_its_own_residual(self):
        calls = []

        def g(t, y, z):
            calls.append(np.shape(y))
            return 0.225 * np.tanh(4.0 * y) + 0.5 * np.abs(z) + 0.3

        driver = GenericLipschitzDriver(g, 1.4)
        e = np.array([[-0.9, -0.2, 1.5], [-0.7, 0.1, 2.5]])
        z = np.array([[0.3, -0.2, 0.0], [0.1, 0.4, -0.5]])
        own, iterations = [], []
        for j in range(3):
            calls.clear()
            own.append(_implicit_step(driver, 0.5, e[:, j].copy(),
                                      z[:, j].copy(), 0.25))
            iterations.append(len(calls))
        calls.clear()
        stacked = _implicit_step(driver, 0.5, e, z, 0.25)
        assert len(set(iterations)) == 3
        assert calls == [(2, 3)] * max(iterations)
        for j in range(3):
            assert np.array_equal(stacked[:, j], own[j])

    def test_a_column_that_cannot_converge_names_its_node(self):
        # y -> e - (y - 1) swings between 1 and e, so only the nodes with
        # e = 1 settle: node 2 of column 1 is stuck with residual |1 - e| = 3,
        # flat index 7 of the (4, 3) stack
        driver = GenericLipschitzDriver(lambda t, y, z: 2.0 * (1.0 - y), 0.5)
        e = np.ones((4, 3))
        e[2, 1] = 4.0
        with pytest.raises(SolverError, match=r"did not converge within 100 "
                           r"iterations \(residual 3\.000e\+00\) \(node 2\)"
                           ) as err:
            _implicit_step(driver, 0.0, e, np.zeros_like(e), 0.5)
        assert err.value.node == 2


class TestInterestRateDriverLongevity:
    def test_nonnegative_gamma_for_positive_rate(self):
        # g = r y^- + z vanishes at z = 0 only for y >= 0; its positive part
        # prices horizon extension of loss-like positions
        lat = BrownianLattice(16, 1.0)
        driver = GenericLipschitzDriver(
            g=lambda t, y, z: 0.3 * np.maximum(-y, 0.0) + z,
            lipschitz_constant=1.3,
        )
        rng = np.random.default_rng(31)
        for _ in range(6):
            X = RandomVariable(lat, 8, rng.uniform(-2.0, 2.0, 9))
            gamma = g_risk_measure(lat, driver, X, 0.0, 1.0) \
                - g_risk_measure(lat, driver, X, 0.0, 0.5)
            assert np.all(gamma.values >= -1e-9)


class TestExactImplicitStep:
    """The closed-form implicit step of the linear and q-quadratic drivers:
    a root of y = e + g(t, y, z) dt, one evaluated step from it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_residual_shortcut_and_domain(self, data):
        n = data.draw(st.integers(1, 6))
        e = np.array(data.draw(st.lists(st.floats(-10.0, 10.0),
                                        min_size=n, max_size=n)))
        z = np.array(data.draw(st.lists(st.floats(-5.0, 5.0),
                                        min_size=n, max_size=n)))
        t = data.draw(st.floats(0.0, 1.0))
        dt = data.draw(st.floats(1e-4, 1.0))
        if data.draw(st.booleans()):
            q = data.draw(st.one_of(
                st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
            rate = HorizonSchedule.constant(data.draw(st.floats(0.0, 2.0)))
            driver, shortcut = QuadraticQDriver(q, rate), q == 1.0
            if np.any(1.0 + (1.0 - q) * e <= 0.0):
                with pytest.raises(DomainError):
                    _implicit_step(driver, t, e, z, dt)
                return
        else:
            mu = data.draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0))
                           .filter(lambda m: m * dt < 1.0))
            driver = LinearDriver.from_constants(
                mu, data.draw(st.floats(-2.0, 2.0)),
                data.draw(st.floats(-2.0, 2.0)))
            shortcut = mu == 0.0
        y = _implicit_step(driver, t, e, z, dt)
        residual = np.abs(y - e - driver(t, y, z) * dt)
        assert np.all(residual <= 1e-12 * (1.0 + np.abs(y)))
        if shortcut:
            assert np.array_equal(y, e + driver(t, e, z) * dt)

    def test_linear_step_is_well_posed_iff_one_minus_mu_dt_positive(self):
        # mu = -2 on two steps: 1 - mu dt = 2, so each step is well-posed;
        # the value converges to int_0^1 e^{mu s} c ds = c (1 - e^-2) / 2
        driver = LinearDriver.from_constants(mu=-2.0, c=0.1)
        exact = 0.1 * (1.0 - math.exp(-2.0)) / 2.0
        gaps = []
        for n in (2, 8, 64):
            lat = BrownianLattice(n, 1.0)
            rho = g_risk_measure(lat, driver, lat.constant(0.0, n), 0.0, 1.0)
            gaps.append(abs(rho.values[0] - exact))
        assert gaps[0] == pytest.approx(abs(0.0375 - exact), abs=1e-15)
        assert gaps[2] < gaps[1] < gaps[0]
        # mu = 5 only on [2, inf), a piece a horizon-1 solve never uses
        lat = BrownianLattice(4, 1.0)
        X = sign_payoff(lat)
        late = LinearDriver(StepFunction((0.0, 2.0), (0.0, 5.0)),
                            StepFunction.constant(0.0),
                            StepFunction.constant(0.3))
        np.testing.assert_allclose(
            g_risk_measure(lat, late, X, 0.0, 1.0).values,
            (expected_loss(X, 0.0) + 0.3).values, atol=1e-12)
        # a step that uses mu dt >= 1 is still rejected
        with pytest.raises(ConfigurationError, match="ill-posed"):
            g_risk_measure(lat, LinearDriver.from_constants(mu=4.0), X,
                           0.0, 1.0)
