import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonrisk import (DomainError, QParams, exp_q, exp_q_extended, ln_q,
                         q_domain_floor)

Q_GRID = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]


class TestExpQ:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_normalization_at_zero(self, q):
        assert exp_q(0.0, q) == pytest.approx(1.0, abs=0.0)

    def test_footnote_formula_by_hand(self):
        # (1 + 0.5 * 1.2)^2
        assert exp_q(1.2, 0.5) == pytest.approx(2.56, abs=1e-12)

    def test_classical_limit_error_shrinks(self):
        for x in (-1.0, 0.0, 1.0):
            errs = [abs(exp_q(x, q) - math.exp(x)) for q in (0.9, 0.99, 0.999)]
            assert errs[0] >= errs[1] >= errs[2]
            if x != 0.0:
                assert errs[0] > errs[1] > errs[2]

    def test_boundary_maps_to_zero_exactly(self):
        for q in (0.3, 0.5, 0.8):
            assert exp_q(q_domain_floor(q), q) == 0.0
        assert q_domain_floor(1.0) == -np.inf  # exp has no boundary

    def test_domain_error_below_boundary(self):
        with pytest.raises(DomainError):
            exp_q(-2.0001, 0.5)

    def test_q_outside_unit_interval_rejected(self):
        for bad_q in (0.0, -0.5, 1.5, 2.0):
            with pytest.raises(DomainError):
                exp_q(0.5, bad_q)

    def test_extended_version_floors_at_zero(self):
        assert exp_q_extended(-5.0, 0.5) == 0.0
        assert exp_q_extended(1.2, 0.5) == pytest.approx(2.56)
        xs = np.array([-5.0, 0.0, 1.2])
        assert np.array_equal(exp_q_extended(xs, 1.0), np.exp(xs))

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_strictly_increasing(self, q):
        xs = np.linspace(q_domain_floor(q) + 1e-9, 50.0, 10_000)
        vals = exp_q(xs, q)
        assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_convex_second_differences(self, q):
        xs = np.linspace(q_domain_floor(q) + 0.01, 20.0, 2000)
        vals = exp_q(xs, q)
        second = np.diff(vals, 2)
        assert np.min(second) >= -1e-10


class TestLnQ:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_normalization_at_one(self, q):
        assert ln_q(1.0, q) == pytest.approx(0.0, abs=0.0)

    def test_footnote_formula_by_hand(self):
        # (2.56^0.5 - 1) / 0.5
        assert ln_q(2.56, 0.5) == pytest.approx(1.2, abs=1e-12)

    def test_ln_q_of_zero_is_domain_floor(self):
        for q in (0.3, 0.5, 0.8):
            assert ln_q(0.0, q) == q_domain_floor(q)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            ln_q(-0.1, 0.5)
        with pytest.raises(DomainError):
            ln_q(0.0, 1.0)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_strictly_increasing(self, q):
        xs = np.geomspace(1e-8, 1e3, 10_000)
        vals = ln_q(xs, q)
        assert np.all(np.diff(vals) > 0.0)


class TestRoundTrips:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_ln_of_exp(self, q):
        floor = q_domain_floor(q)
        xs = np.concatenate([
            np.linspace(floor, 0.0, 300), np.geomspace(1e-8, 1e3, 700),
        ])
        back = ln_q(exp_q(xs, q), q)
        assert np.max(np.abs(back - xs)) <= 1e-10

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_exp_of_ln(self, q):
        xs = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 999)])
        back = exp_q(ln_q(xs, q), q)
        assert np.max(np.abs(back - xs)) <= 1e-10

    @given(x=st.floats(min_value=-1.9, max_value=100.0),
           q=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200, derandomize=True)
    def test_round_trip_property(self, x, q):
        if x < q_domain_floor(q):
            return
        assert ln_q(exp_q(x, q), q) == pytest.approx(x, abs=1e-9)


class TestQParams:
    def test_valid_construction(self):
        QParams(q=0.5, alpha_q=0.0)
        QParams(q=0.5, alpha_q=-1.5)  # floor is -2
        QParams(q=1.0, alpha_q=3.0)

    def test_alpha_below_floor_rejected(self):
        with pytest.raises(DomainError):
            QParams(q=0.5, alpha_q=-2.5)

    def test_q_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            QParams(q=1.2, alpha_q=0.0)
        with pytest.raises(DomainError):
            QParams(q=0.0, alpha_q=0.0)

    def test_alpha_must_be_finite(self):
        with pytest.raises(DomainError):
            QParams(q=1.0, alpha_q=math.inf)
