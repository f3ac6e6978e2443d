"""Acceptance gate: one test per criterion, each printing its PASS line.

Everything here is property- or oracle-based at desk scale; the tolerances
are pinned in the assertions.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import horizonrisk as hr
from horizonrisk import (AggregatorFn, BrownianLattice, DualGrid,
                         HorizonSchedule, LinearDriver, LossSpec, QParams,
                         QuadraticQDriver, RandomVariable, ScenarioTree,
                         ShortfallSpec, StepFunction, TargetSchedule,
                         UtilityFn)
from horizonrisk.cli import EXIT_OK, run_config

from conftest import random_rv, random_tree

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def test_criterion_1_tsallis_round_trips():
    with criterion(1, "Tsallis round-trips and classical limit"):
        for q in np.arange(0.1, 0.95, 0.1):
            q = round(float(q), 1)
            floor = hr.q_domain_floor(q)
            xs = np.concatenate([
                np.linspace(floor, 0.0, 2_000),
                np.geomspace(1e-10, 1e3, 8_000),
            ])
            assert len(xs) == 10_000
            back = hr.ln_q(hr.exp_q(xs, q), q)
            assert np.max(np.abs(back - xs)) <= 1e-10
            vs = np.concatenate([
                np.linspace(0.0, 1.0, 2_000),
                np.geomspace(1.0, 1e3, 8_000),
            ])
            fwd = hr.exp_q(hr.ln_q(vs, q), q)
            assert np.max(np.abs(fwd - vs)) <= 1e-10
        for x in (-1.0, 0.0, 1.0):
            errs = [abs(hr.exp_q(x, q) - math.exp(x))
                    for q in (0.9, 0.99, 0.999)]
            assert errs[0] >= errs[1] >= errs[2]
            if x != 0.0:
                assert errs[0] > errs[1] > errs[2]


def test_criterion_2_bsde_matches_entropic_closed_form():
    with criterion(2, "BSDE solve converges to the entropic closed form"):
        errs = []
        for n in (8, 16, 32, 64):
            lat = BrownianLattice(n, 1.0)
            b = lat.brownian(n)
            X = RandomVariable(lat, n, np.where(b >= 0.1, 0.75, -0.75))
            solved = hr.g_risk_measure(lat, QuadraticQDriver.entropic(),
                                       X, 0.0, 1.0)
            ref = hr.entropic(X, 0.0, 1.0)
            errs.append(abs(solved.values[0] - ref.values[0]))
        assert all(b < a for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 5e-3, errs


def test_criterion_3_quadratic_representation():
    with criterion(3, "quadratic solve agrees with the ln_q transform"):
        lat = BrownianLattice(32, 1.0)
        term = RandomVariable(lat, 32, np.abs(lat.brownian(32)))
        for q in (0.25, 0.5, 0.75):
            direct = hr.solve_bsde(lat, QuadraticQDriver(q=q),
                                   term).Y[0]
            transform = hr.quadratic_transform_solve(
                lat, q, HorizonSchedule.zero(), term)
            assert abs(direct.values[0] - transform.values[0]) < 1e-2


def test_criterion_4_h_longevity_characterization():
    with criterion(4, "h-longevity sign and Girsanov formula agreement"):
        rng = np.random.default_rng(404)
        lat = BrownianLattice(64, 1.0)
        for _ in range(50):
            driver = LinearDriver(
                mu=StepFunction.constant(0.0),
                nu=StepFunction((0.0, 0.5),
                                tuple(rng.uniform(-0.6, 0.6, 2))),
                c=StepFunction((0.0, 0.5), tuple(rng.uniform(0.0, 0.5, 2))),
            )
            X = RandomVariable(lat, 32, rng.uniform(-2.0, 2.0, 33))
            direct, formula = hr.longevity_girsanov(lat, driver, 0.0, 0.5,
                                                    1.0, X)
            assert np.min(direct.values) >= -1e-9
            assert np.max(np.abs(direct.values - formula.values)) < 5e-2
        # drift-weighted agreement (mu != 0 exercises the exp(int mu) factor)
        for _ in range(5):
            driver = LinearDriver.from_constants(
                mu=float(rng.uniform(-0.4, 0.4)),
                nu=float(rng.uniform(-0.4, 0.4)),
                c=float(rng.uniform(0.0, 0.4)))
            X = RandomVariable(lat, 32, np.tanh(lat.brownian(32)))
            direct, formula = hr.longevity_girsanov(lat, driver, 0.0, 0.5,
                                                    1.0, X)
            assert np.max(np.abs(direct.values - formula.values)) < 5e-2
        # a negative intercept somewhere must produce a negative witness
        witnesses = 0
        for _ in range(10):
            driver = LinearDriver(
                mu=StepFunction.constant(0.0),
                nu=StepFunction.constant(float(rng.uniform(-0.5, 0.5))),
                c=StepFunction((0.0, 0.5),
                               (float(rng.uniform(0.0, 0.3)),
                                float(rng.uniform(-0.5, -0.1)))),
            )
            X = RandomVariable(lat, 32, rng.uniform(-1.0, 1.0, 33))
            direct, _ = hr.longevity_girsanov(lat, driver, 0.0, 0.5, 1.0, X)
            if np.min(direct.values) < -1e-9:
                witnesses += 1
        assert witnesses == 10


def test_criterion_5_monotonicity_in_q():
    with criterion(5, "q-entropic values are non-decreasing in q"):
        rng = np.random.default_rng(505)
        q_grid = list(np.linspace(0.1, 1.0, 10))
        for trial in range(100):
            n = 2 if trial % 2 == 0 else 3
            raw = rng.uniform(0.1, 1.0, n)
            tree = ScenarioTree.terminal_atoms(raw / raw.sum())
            X = RandomVariable(tree, 1, rng.uniform(-3.0, 3.0, n))
            alphas = np.sort(rng.uniform(-1.0, 1.0, 10))
            report = hr.monotone_in_q_check(X, 0.0, q_grid, alphas,
                                            beta=float(rng.uniform(0.0, 1.0)))
            assert report.worst_slack >= -1e-9
            assert report.passed


def test_criterion_6_shortfall_equivalences():
    with criterion(6, "shortfall equals entropic / hq / certainty equivalent"):
        # (a) exponential-utility shortfall vs entropic, flat and step rates
        sched = HorizonSchedule(StepFunction((0.0, 0.4), (0.25, 0.1)))
        flat_spec = ShortfallSpec.classic(UtilityFn.exp_bounded(1.0), 0.0)
        for seed in range(12):
            tree = random_tree(seed, depth=3, times=[0.0, 0.4, 0.7, 1.0])
            X = random_rv(tree, seed + 600)
            assert hr.static_shortfall(X, flat_spec) == pytest.approx(
                hr.entropic(X, 0.0, 1.0).values[0], abs=1e-8)

            def utility(u):
                a0u = sched.integral(0.0, u)
                return UtilityFn(
                    fn=lambda x: 1.0 - np.exp(np.minimum(-x + a0u, 700.0)),
                    name=f"h-entropic-{u}")

            targets = TargetSchedule(
                lambda t, u: 1.0 - math.exp(sched.integral(0.0, t)))
            h_spec = ShortfallSpec(utility, AggregatorFn.additive(), targets)
            for t in (0.0, 0.4):
                dyn = hr.dynamic_shortfall(X, t, h_spec, u=1.0)
                ref = hr.h_entropic(X, t, 1.0, 1.0, sched)
                np.testing.assert_allclose(dyn.values, ref.values, atol=1e-8)

        # (b) the hq spec reproduces the hq-entropic measure on losses
        rng = np.random.default_rng(606)
        for trial in range(100):
            tree = random_tree(trial, depth=2, times=[0.0, 0.5, 1.0])
            qp = QParams(q=float(rng.uniform(0.2, 0.95)),
                         alpha_q=float(rng.uniform(-0.8, 0.8)))
            beta = float(rng.uniform(0.0, 1.0))
            sched_b = HorizonSchedule.constant(float(rng.uniform(0.0, 0.4)))
            spec = hr.hq_shortfall_spec(qp, beta=beta, schedule=sched_b)
            loss = LossSpec(beta=beta, qparams=qp)
            X = random_rv(tree, trial + 700)
            t = 0.0 if trial % 3 else 0.5
            dyn = hr.dynamic_shortfall(X, t, spec, u=1.0)
            ref = hr.hq_entropic_losses(X, t, 1.0, loss, sched_b)
            np.testing.assert_allclose(dyn.values, ref.values, atol=1e-7)

        # (c) the induced aggregator makes shortfall = certainty equivalent
        for utilde in (UtilityFn.neg_exponential(1.0), UtilityFn.softplus()):
            f = AggregatorFn.ce_induced(UtilityFn.linear(), utilde,
                                        target=0.2)
            spec = ShortfallSpec(UtilityFn.linear(), f,
                                 TargetSchedule.constant(0.2))
            check = hr.ce_equivalence_check(UtilityFn.linear(), f, 0.2,
                                            utilde)
            assert check.equivalent
            for seed in range(8):
                tree = random_tree(seed + 50, depth=3)
                X = random_rv(tree, seed + 800, low=-2.0, high=2.0)
                dyn = hr.dynamic_shortfall(X, 0.0, spec)
                ce = hr.certainty_equivalent(X, 0.0, utilde)
                np.testing.assert_allclose(dyn.values, ce.values, atol=1e-7)

        # (d) the hq family is not a certainty equivalent for any candidate
        qp = QParams(q=0.5, alpha_q=0.0)
        f_hq = AggregatorFn.hq(qp, beta=0.0, horizon_term=0.0)
        battery = [UtilityFn.linear(), UtilityFn.neg_exponential(1.0),
                   UtilityFn.neg_exponential(0.5), UtilityFn.exp_bounded(1.0),
                   UtilityFn.exp_bounded(0.3), UtilityFn.softplus()]
        for utilde in battery:
            check = hr.ce_equivalence_check(UtilityFn.linear(), f_hq, 0.0,
                                            utilde)
            assert not check.equivalent


def test_criterion_7_duality():
    with criterion(7, "quasi-convex dual representation"):
        two_atom = ScenarioTree.terminal_atoms([0.5, 0.5])
        linear_spec = ShortfallSpec.classic(UtilityFn.linear(), 0.0)
        entropic_spec = ShortfallSpec.classic(UtilityFn.exp_bounded(1.0), 0.0)
        X = RandomVariable(two_atom, 1, [1.0, -1.0])
        fine = DualGrid.simplex(2, 0.01)
        for spec in (linear_spec, entropic_spec):
            report = hr.dual_value(X, spec, fine)
            static = hr.static_shortfall(X, spec)
            assert report.value <= static + 1e-8
            assert static - report.value <= 0.05
        # the entropic dual also lands within 0.02 of its closed form
        closed = float(np.log(np.mean(np.exp(-X.values))))
        entropic_report = hr.dual_value(X, entropic_spec, fine)
        assert abs(entropic_report.value - closed) <= 0.02

        # weak duality across sampled specs and positions, 2 and 3 atoms
        rng = np.random.default_rng(707)
        pool = [linear_spec, entropic_spec,
                ShortfallSpec(UtilityFn.exp_bounded(0.8),
                              AggregatorFn.scaled_additive(0.7),
                              TargetSchedule.constant(0.1)),
                ShortfallSpec(UtilityFn.linear(),
                              AggregatorFn.exponential(0.5),
                              TargetSchedule.constant(0.2))]
        for trial in range(8):
            n = 2 if trial % 2 == 0 else 3
            raw = rng.uniform(0.2, 1.0, n)
            tree = ScenarioTree.terminal_atoms(raw / raw.sum())
            Xr = RandomVariable(tree, 1, rng.uniform(-2.0, 2.0, n))
            spec = pool[trial % len(pool)]
            report = hr.dual_value(Xr, spec, DualGrid.simplex(n, 0.1))
            static = hr.static_shortfall(Xr, spec)
            assert float(report.value) <= float(static) + 1e-8

        # minimal penalty: Lagrangian dual vs enumeration oracle
        specs = [entropic_spec,
                 ShortfallSpec(UtilityFn.exp_bounded(0.8),
                               AggregatorFn.scaled_additive(0.7),
                               TargetSchedule.constant(0.1)),
                 ShortfallSpec(UtilityFn.linear(),
                               AggregatorFn.exponential(0.5),
                               TargetSchedule.constant(0.2))]
        rng = np.random.default_rng(717)
        for trial in range(100):
            n = 2 if trial % 5 < 3 else 3
            raw = rng.uniform(0.15, 1.0, n)
            tree = ScenarioTree.terminal_atoms(raw / raw.sum())
            q_raw = rng.uniform(0.15, 1.0, n)
            Q = q_raw / q_raw.sum()
            m = float(rng.uniform(-1.5, 1.5))
            spec = specs[trial % len(specs)]
            lag = hr.c_min(m, Q, spec, tree)
            oracle = hr.c_min_bruteforce(m, Q, spec, tree)
            assert isinstance(lag, float) and isinstance(oracle, float)
            assert abs(lag - oracle) < 5e-3


def test_criterion_8_axiom_suite():
    with criterion(8, "axiom checker verdicts"):
        tree = random_tree(808, depth=3, times=[0.0, 0.25, 0.5, 1.0])
        ent = lambda X: hr.entropic(X, 0.0, 1.0)
        assert hr.check_cash_additive(ent, tree).passed
        assert hr.check_convex(ent, tree).passed
        assert hr.check_monotone(ent, tree).passed
        assert hr.check_restriction(
            lambda X, t, u: hr.entropic(X, t, 1.0), tree).passed

        sched = HorizonSchedule.constant(0.1)
        spec = LossSpec(beta=0.0, qparams=QParams(q=0.5, alpha_q=0.0))
        hq = lambda X: hr.hq_entropic_losses(X, 0.0, 1.0, spec, sched)
        ca = hr.check_cash_additive(hq, tree)
        assert not ca.passed
        w = ca.witness
        Xw = RandomVariable(tree, 3, w["x"])
        gap = hq(Xw + w["m"]).values[w["node"]] \
            - hq(Xw).values[w["node"]] + w["m"]
        assert abs(gap) > 1e-8  # witness replays the violation
        assert hr.check_cash_subadditive(hq, tree).passed
        assert hr.check_monotone(hq, tree).passed
        assert hr.check_h_longevity(
            lambda X, t, u: hr.hq_entropic_losses(X, t, u, spec, sched),
            tree).passed

        var_tree = ScenarioTree.terminal_atoms([0.95, 0.05])
        Xv = RandomVariable(var_tree, 1, [1.0, -5.0])
        assert hr.h_var(Xv, 0.0, 0.05).values[0] == -1.0

        rng = np.random.default_rng(88)
        base_tree = random_tree(88, depth=3)
        n = base_tree.num_nodes(3)
        worst = math.inf
        for _ in range(200):
            X = RandomVariable(base_tree, 3, rng.uniform(-3.0, 3.0, n))
            D = RandomVariable(base_tree, 3, rng.uniform(0.05, 1.0, n))
            m = float(rng.uniform(0.0, 5.0))
            phi = lambda Z, t: hr.entropic(Z, t, 1.0)
            base = hr.discounted_wrap(phi, D, X, 0.0, 1.0)
            shifted = hr.discounted_wrap(phi, D, X + m, 0.0, 1.0)
            worst = min(worst,
                        float(np.min(shifted.values - base.values + m)))
        assert worst >= -1e-8


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI outputs are byte-identical across reruns"):
        for config in sorted(CONFIGS.glob("*.json")):
            out1 = tmp_path / f"{config.stem}_a"
            out2 = tmp_path / f"{config.stem}_b"
            assert run_config(config, out_dir=out1) == EXIT_OK
            assert run_config(config, out_dir=out2) == EXIT_OK
            names1 = sorted(p.name for p in out1.iterdir())
            names2 = sorted(p.name for p in out2.iterdir())
            assert names1 == names2 and names1
            for name in names1:
                assert (out1 / name).read_bytes() == \
                    (out2 / name).read_bytes(), (config.name, name)
