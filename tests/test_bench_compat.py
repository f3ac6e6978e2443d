"""The benchmark's tracer (``perfbench/tracing.py``) still fits the library.

The tracer wraps the traced functions by name in every ``horizonrisk``
namespace, and the traced methods from each class's own ``__dict__``.  A
library change that deletes a traced function or moves a traced method into
a base class makes ``Tracer.install`` fail; this test sees that without
running the benchmark.
"""

import sys
from pathlib import Path

import numpy as np

import horizonrisk as hr
from horizonrisk import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_tracer_installs_counts_and_uninstalls():
    dual_value = hr.dual_value
    run_config = cli.run_config
    utility_call = vars(hr.UtilityFn)["__call__"]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises if a traced name is missing
        assert hr.dual_value is not dual_value
        assert cli.run_config is not run_config
        assert vars(hr.UtilityFn)["__call__"] is not utility_call
        hr.exp_q(0.5, 0.5)
        assert tracer.counts["qcalculus.calls"] == 1
        # g_risk_measure runs its own backward loop, not the traced
        # solve_bsde; its driver calls must still be counted
        lat = hr.BrownianLattice(4, 1.0)
        # -X >= -1 keeps the q = 0.5 driver's 1 + (1-q) y > 0 on every layer
        X = hr.RandomVariable(lat, 4, 0.5 * lat.brownian(4))
        hr.g_risk_measure(lat, hr.QuadraticQDriver.entropic(), X, 0.0, 1.0)
        assert tracer.counts["bsde.driver.calls"] > 0
        # the exact implicit step evaluates a q < 1 driver once per step
        before = tracer.counts["bsde.driver.calls"]
        hr.g_risk_measure(lat, hr.QuadraticQDriver(0.5), X, 0.0, 1.0)
        assert tracer.counts["bsde.driver.calls"] - before == 4
        # past depth(X) = 2 the horizon steps add a(t) dt without a driver
        # call: two calls for the two lattice steps below depth 2
        before = tracer.counts["bsde.driver.calls"]
        X2 = hr.RandomVariable(lat, 2, lat.brownian(2))
        hr.g_risk_measure(lat, hr.QuadraticQDriver(0.5), X2, 0.0, 1.0)
        assert tracer.counts["bsde.driver.calls"] - before == 2
        # the lattice builds its law through the wrapped entry point
        calls = tracer.counts["probspace.cond_matrix.calls"]
        cells = tracer.counts["probspace.cond_matrix.cells"]
        hr.BrownianLattice(4).cond_matrix(2, 4)
        assert tracer.counts["probspace.cond_matrix.calls"] - calls == 1
        assert tracer.counts["probspace.cond_matrix.cells"] - cells == 15
        # a tree conditions through its own wrapped hook, once per step
        tree = hr.ScenarioTree.random(np.random.default_rng(0), depth=3)
        steps = tracer.counts["probspace.step_expectation.calls"]
        tree.constant(1.0, 3).condexp(0)
        assert tracer.counts["probspace.step_expectation.calls"] - steps == 3
    finally:
        tracer.uninstall()
    assert hr.dual_value is dual_value
    assert cli.run_config is run_config
    assert vars(hr.UtilityFn)["__call__"] is utility_call


def test_shortfall_probes_stay_with_the_traced_entry_point():
    """The static shortfall runs the nodewise solve through an untraced
    helper, so its utility probes count as the static call's own."""
    tree = hr.ScenarioTree.terminal_atoms([0.3, 0.7])
    X = hr.RandomVariable(tree, 1, [1.0, -0.5])
    spec = hr.ShortfallSpec.classic(hr.UtilityFn.exp_bounded(1.0), 0.0)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        hr.static_shortfall(X, spec)
        static_probes = tracer.counts["shortfall.probes"]
        hr.dynamic_shortfall(X, 0.0, spec)
        assert static_probes > 0
        assert tracer.counts["shortfall.probes"] == 2 * static_probes
        assert tracer.counts["shortfall.calls"] == 2
        hr.rho_bar(0.0, X, spec)
        assert tracer.counts["duality.inner_evals"] > 0
        assert tracer.counts["shortfall.probes"] == 2 * static_probes
    finally:
        tracer.uninstall()


def test_solve_bsde_counts_one_solve_and_its_steps():
    """The tracer reads the terminal's depth from ``solve_bsde``'s third
    positional argument and passes the solution through."""
    lat = hr.BrownianLattice(4, 1.0)
    T = hr.RandomVariable(lat, 3, np.tanh(lat.brownian(3)))
    want = hr.solve_bsde(lat, hr.QuadraticQDriver(0.5), T)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        sol = hr.solve_bsde(lat, hr.QuadraticQDriver(0.5), T)
        assert tracer.counts["bsde.solves"] == 1
        assert tracer.counts["bsde.steps"] == 3
    finally:
        tracer.uninstall()
    assert [Y.values.tobytes() for Y in sol.Y] == \
        [Y.values.tobytes() for Y in want.Y]


def test_a_bsde_sweep_runs_one_pass_per_position():
    """The sweep keeps its passes behind the traced ``g_risk_measure``: the
    axiom layer makes the calls it made before, and the driver layer does
    less work.  The reference family copies X on every call, so it never
    reads a kept pass.  With samples=2 the positions are the constants -2
    and 0; one pass for both positions at depth j serves every horizon, as
    the columns of one stack, and runs j driver steps: sum_j j = 6 calls on
    four steps, against 50 for a new pass per (t, X, v)."""
    lat = hr.BrownianLattice(4, 1.0)
    driver = hr.QuadraticQDriver(0.8, hr.HorizonSchedule.constant(0.2))
    families = {
        "kept": lambda X, t, u: hr.g_risk_measure(lat, driver, X, t, u),
        "copied": lambda X, t, u: hr.g_risk_measure(
            lat, driver, hr.RandomVariable(lat, X.depth, X.values.copy()),
            t, u),
    }
    counts, reports = {}, {}
    for name, rho in families.items():
        tracer = tracing.Tracer()
        try:
            tracer.install()
            reports[name] = hr.check_h_longevity(tracer.count_rho(rho), lat,
                                                 samples=2, seed=1)
        finally:
            tracer.uninstall()
        counts[name] = (tracer.counts["axioms.rho_calls"],
                        tracer.counts["bsde.driver.calls"],
                        tracer.counts["probspace.step_expectation.calls"])
    assert reports["kept"] == reports["copied"]
    assert counts == {"kept": (60, 6, 6), "copied": (60, 50, 50)}
