"""Seeded workloads of the horizonrisk benchmark.

Each workload turns a seed into a fixed number of *rounds*.  Every round of a
workload has the same number of jobs of each kind and model size; the seed
draws the inputs (positions, probabilities, measures, parameters, random-tree
branching) and the order of the jobs inside the round.  A *job* is one
user-facing unit of work: one library call (or the pair of calls a user makes
to get one answer), or, for ``config-batch``, writing one config file and one
``run_config`` call on it.

Every job also names its *class*: the jobs of one class do the same work on
different data (same kind, model size and grid), so their times differ only
by data and machine noise.  Every round holds the same number of jobs of
each class, and the timed run summarises each class by its median time.

Every job carries a reference check that runs outside the timed region.  A
check returns the job's worst deviation from its independent reference
route divided by the tolerance pinned for that route (``<= 1`` passes);
boolean checks return 0 when they hold and ``BOOL_FAIL`` when they do not.

Jobs look library functions up through their module at call time
(``hr.dual_value(...)``), so the wrappers of the traced run see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import horizonrisk as hr

N_ROUNDS = 4          # rounds generated per seed; the timed phase cycles them
BOOL_FAIL = 1e9       # deviation ratio reported for a boolean check that fails


@dataclass
class Job:
    kind: str
    cls: str                         # class: same work, different data
    params: dict
    run: Callable[[Any], Any]        # run(tracer or None) -> output
    check: Callable[[Any], float]    # output -> deviation / tolerance


@dataclass
class Workload:
    name: str
    rounds: list[list[Job]]
    digest: str


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def _digest(rounds_params: list[list[dict]]) -> str:
    text = json.dumps(rounds_params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shuffled(rng: np.random.Generator, jobs: list[dict]) -> list[dict]:
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _simplex(rng: np.random.Generator, n: int, low: float) -> list[float]:
    raw = rng.uniform(low, 1.0, n)
    return [float(v) for v in raw / raw.sum()]


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _as_float(value) -> float:
    return value.as_float() if isinstance(value, hr.RiskSentinel) else float(value)


def _ratio(deviation: float, tol: float) -> float:
    ratio = float(deviation) / tol
    if not math.isfinite(ratio):
        raise ArithmeticError(f"non-finite deviation {deviation!r}")
    return ratio


# ---------------------------------------------------------------------------
# desk-duality
# ---------------------------------------------------------------------------

# The criterion-7 spec pool of tests/test_acceptance.py.
def _spec(name: str) -> hr.ShortfallSpec:
    if name == "linear":
        return hr.ShortfallSpec.classic(hr.UtilityFn.linear(), 0.0)
    if name == "entropic":
        return hr.ShortfallSpec.classic(hr.UtilityFn.exp_bounded(1.0), 0.0)
    if name == "scaled_additive":
        return hr.ShortfallSpec(hr.UtilityFn.exp_bounded(0.8),
                                hr.AggregatorFn.scaled_additive(0.7),
                                hr.TargetSchedule.constant(0.1))
    if name == "exponential":
        return hr.ShortfallSpec(hr.UtilityFn.linear(),
                                hr.AggregatorFn.exponential(0.5),
                                hr.TargetSchedule.constant(0.2))
    raise ValueError(name)


DUAL_POOL = ("linear", "entropic", "scaled_additive", "exponential")
CMIN_POOL = ("entropic", "scaled_additive", "exponential")


def _shipped_duality(root: Path) -> dict:
    """The instance of configs/duality_entropic.json as a dual_value job."""
    cfg = json.loads((root / "configs" / "duality_entropic.json").read_text())
    measure, task = cfg["measure"], cfg["tasks"][0]
    if (measure["utility"] != {"kind": "exp_bounded", "gamma": 1.0}
            or measure["aggregator"] != {"kind": "additive"}
            or measure["target"] != 0.0):
        raise ValueError("duality_entropic.json no longer holds the entropic spec")
    probs = [node["p"] for node in cfg["model"]["nodes"] if node["depth"] == 1]
    return {"kind": "dual_value", "source": "duality_entropic.json",
            "spec": "entropic", "p": probs,
            "x": task["position"]["values"], "res": task["resolution"]}


def desk_duality_params(seed: int, root: Path) -> list[list[dict]]:
    rng = _rng(seed, "desk-duality")
    shipped = _shipped_duality(root)
    rounds = []
    for r in range(N_ROUNDS):
        # the seeded dual alternates 2 and 3 atoms and walks the spec pool,
        # so four rounds cover all of it
        n, res = (2, 0.05) if r % 2 == 0 else (3, 0.1)
        jobs = [shipped, {"kind": "dual_value", "spec": DUAL_POOL[r % 4],
                          "p": _simplex(rng, n, 0.2),
                          "x": _floats(rng.uniform(-2.0, 2.0, n)), "res": res}]
        for spec in CMIN_POOL:
            for n in (2, 2, 3, 3):
                jobs.append({"kind": "c_min", "spec": spec,
                             "p": _simplex(rng, n, 0.15),
                             "q": _simplex(rng, n, 0.15),
                             "m": float(rng.uniform(-1.5, 1.5))})
        rounds.append(_shuffled(rng, jobs))
    return rounds


def _desk_job(params: dict, ctx: dict) -> Job:
    tree = hr.ScenarioTree.terminal_atoms(params["p"])
    spec = _spec(params["spec"])
    if params["kind"] == "c_min":
        Q = np.array(params["q"])
        m = params["m"]

        def run(trace):
            return hr.c_min(m, Q, spec, tree)

        def check(lag):
            oracle = hr.c_min_bruteforce(m, Q, spec, tree)
            if isinstance(lag, hr.RiskSentinel) or isinstance(oracle, hr.RiskSentinel):
                return 0.0 if lag == oracle else BOOL_FAIL
            return _ratio(abs(lag - oracle), 5e-3)

        return Job("c_min", "c_min", params, run, check)

    X = hr.RandomVariable(tree, 1, params["x"])
    grid = hr.DualGrid.simplex(len(params["p"]), params["res"])

    def run(trace):
        return hr.dual_value(X, spec, grid), hr.static_shortfall(X, spec)

    def check(out):
        report, static = out
        dual_f, static_f = _as_float(report.value), _as_float(static)
        if math.isnan(dual_f) or math.isnan(static_f):
            return BOOL_FAIL
        worst = 0.0 if dual_f <= static_f else _ratio(dual_f - static_f, 1e-8)
        if params.get("source"):
            p = np.array(params["p"])
            closed = math.log(float(np.dot(p, np.exp(-np.array(params["x"])))))
            worst = max(worst, _ratio(abs(dual_f - closed), 0.02))
        return worst

    return Job("dual_value", "dual_value", params, run, check)


# ---------------------------------------------------------------------------
# lattice-nodewise
# ---------------------------------------------------------------------------

LATTICE_SIZES = (128, 256, 512)
# h_var and acceptance_member spend their time building the same conditional
# laws as the shortfalls.  At N=512 the two shortfalls already measure that
# cost; four more such jobs a round would leave fewer rounds, so fewer
# samples of every class, in a run.
CONDLAW_SIZES = (128, 256)


def lattice_nodewise_params(seed: int, root: Path) -> list[list[dict]]:
    rng = _rng(seed, "lattice-nodewise")
    rounds = []
    for _ in range(N_ROUNDS):
        jobs = []
        for n in LATTICE_SIZES:
            for depth in (0, n // 2):
                base = {"n": n, "depth": depth,
                        "x": _floats(rng.uniform(-2.0, 2.0, n + 1))}
                gamma = float(rng.uniform(0.5, 1.5))
                hq = {"q": float(rng.uniform(0.2, 0.95)),
                      "alpha": float(rng.uniform(-0.8, 0.8)),
                      "beta": float(rng.uniform(0.0, 1.0)),
                      "rate": float(rng.uniform(0.0, 0.4))}
                jobs += [
                    dict(base, kind="shortfall_exp", gamma=gamma),
                    dict(base, kind="shortfall_hq", **hq),
                    dict(base, kind="hq_entropic", **hq),
                    dict(base, kind="entropic", gamma=gamma),
                ]
                if n in CONDLAW_SIZES:
                    jobs += [
                        dict(base, kind="h_var", alpha=float(rng.uniform(0.01, 0.2))),
                        dict(base, kind="acceptance", gamma=gamma,
                             m=float(rng.uniform(-1.0, 1.0))),
                    ]
        rounds.append(_shuffled(rng, jobs))
    return rounds


def _binomial_rows(n: int, depth: int) -> np.ndarray:
    """P(terminal state i + j | state i at depth) for j = 0..n-depth, the same
    for every node i of the symmetric lattice; built from log-binomials, not
    from the library."""
    k = n - depth
    logw = [math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
            - k * math.log(2.0) for j in range(k + 1)]
    return np.exp(np.array(logw))


def _windows(values: np.ndarray, depth: int) -> np.ndarray:
    """Terminal values reachable from each depth node, one row per node."""
    return np.lib.stride_tricks.sliding_window_view(values, len(values) - depth)


def _exp_q(x, q):   # q < 1
    return np.maximum(1.0 + (1.0 - q) * x, 0.0) ** (1.0 / (1.0 - q))


def _ln_q(x, q):    # q < 1
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def _max_dev(values, ref, tol: float, scaled: bool = False) -> float:
    values, ref = np.asarray(values, float), np.asarray(ref, float)
    if values.shape != ref.shape:
        raise ValueError(f"shape {values.shape} != reference shape {ref.shape}")
    dev = np.abs(values - ref)
    if scaled:
        dev = dev / np.maximum(1.0, np.abs(ref))
    return _ratio(float(np.max(dev)), tol)


def _lattice_job(params: dict, ctx: dict) -> Job:
    n, depth, kind = params["n"], params["depth"], params["kind"]
    lat = ctx["lattices"][n]
    t = lat.times[depth]
    xs = np.array(params["x"])
    X = hr.RandomVariable(lat, n, xs)

    if kind in ("shortfall_exp", "acceptance", "entropic"):
        gamma = params["gamma"]
        spec = hr.ShortfallSpec.classic(hr.UtilityFn.exp_bounded(gamma), 0.0)
    if kind in ("shortfall_hq", "hq_entropic"):
        q = params["q"]
        qp = hr.QParams(q=q, alpha_q=params["alpha"])
        sched = hr.HorizonSchedule.constant(params["rate"])
        loss = hr.LossSpec(beta=params["beta"], qparams=qp)

    if kind == "shortfall_exp":
        run = lambda trace: hr.dynamic_shortfall(X, t, spec).values
        check = lambda out: _max_dev(out, hr.entropic(X, t, gamma).values, 1e-8)
    elif kind == "shortfall_hq":
        hq_spec = hr.hq_shortfall_spec(qp, beta=params["beta"], schedule=sched)
        run = lambda trace: hr.dynamic_shortfall(X, t, hq_spec, u=1.0).values
        check = lambda out: _max_dev(
            out, hr.hq_entropic_losses(X, t, 1.0, loss, sched).values, 1e-7)
    elif kind == "h_var":
        alpha = params["alpha"]
        run = lambda trace: hr.h_var(X, t, alpha).values

        def check(out):
            w, ref = _binomial_rows(n, depth), []
            for row in _windows(xs, depth):
                order = np.argsort(-row)
                tail = np.cumsum(w[order])
                ref.append(-row[order][np.argmax(tail >= 1.0 - alpha - 1e-12)])
            return _max_dev(out, ref, 1e-12)
    elif kind == "acceptance":
        m = params["m"]
        run = lambda trace: hr.acceptance_member(X, m, spec, t).values

        def check(out):
            level = (1.0 - np.exp(-gamma * (_windows(xs, depth) + m))) @ _binomial_rows(n, depth)
            return 0.0 if np.array_equal(out, (level >= 0.0).astype(float)) else BOOL_FAIL
    elif kind == "hq_entropic":
        run = lambda trace: hr.hq_entropic_losses(X, t, 1.0, loss, sched).values

        def check(out):
            shift = params["rate"] * (1.0 - t)
            losses = np.maximum(-(_windows(xs, depth) + params["beta"]), 0.0) \
                + params["alpha"] + shift
            ref = _ln_q(_exp_q(losses, q) @ _binomial_rows(n, depth), q)
            return _max_dev(out, ref, 1e-9, scaled=True)
    else:
        run = lambda trace: hr.entropic(X, t, gamma).values

        def check(out):
            ref = np.log(np.exp(-gamma * _windows(xs, depth)) @ _binomial_rows(n, depth)) / gamma
            return _max_dev(out, ref, 1e-9, scaled=True)

    return Job(kind, f"{kind}/n{n}/{'mid' if depth else 'root'}", params, run, check)


# ---------------------------------------------------------------------------
# horizon-sweep
# ---------------------------------------------------------------------------

SWEEP_SIZES = (8, 12, 16)
TRANSFORM_SIZES = (64, 128, 256)


def horizon_sweep_params(seed: int, root: Path) -> list[list[dict]]:
    rng = _rng(seed, "horizon-sweep")
    rounds = []
    for _ in range(N_ROUNDS):
        jobs = []
        for n in SWEEP_SIZES:
            for family in ("q_bsde", "entropic_bsde"):
                for axiom in ("h_longevity", "restriction"):
                    job = {"kind": "axiom", "axiom": axiom, "family": family,
                           "n": n, "seed": int(rng.integers(0, 2**31))}
                    if family == "q_bsde":
                        # the checker samples positions in [-3, 3]; q > 2/3
                        # keeps 1 + (1-q) y > 0 on all of them
                        job.update(q=float(rng.uniform(0.7, 0.95)),
                                   rate=float(rng.uniform(0.05, 0.4)))
                    jobs.append(job)
        for i in range(12):
            if i < 8:   # criterion-4 family: mu = 0, step nu and c >= 0
                jobs.append({"kind": "girsanov", "mu": [0.0],
                             "nu": _floats(rng.uniform(-0.6, 0.6, 2)),
                             "c": _floats(rng.uniform(0.0, 0.5, 2)),
                             "x": _floats(rng.uniform(-2.0, 2.0, 33))})
            else:       # constant coefficients with mu != 0 on tanh(B)
                jobs.append({"kind": "girsanov",
                             "mu": [float(rng.uniform(-0.4, 0.4))],
                             "nu": [float(rng.uniform(-0.4, 0.4))],
                             "c": [float(rng.uniform(0.0, 0.4))],
                             "scale": float(rng.uniform(0.5, 1.5))})
        for n in TRANSFORM_SIZES:
            for _ in range(4):
                a = float(rng.uniform(0.3, 1.0))
                # terminal a|B| + bB + c >= c > -0.2 keeps 1 + (1-q) y > 0
                jobs.append({"kind": "transform", "n": n,
                             "q": float(rng.uniform(0.3, 1.0)),
                             "rate": float(rng.uniform(0.0, 0.3)),
                             "a": a, "b": float(rng.uniform(-0.3, 0.3)),
                             "c": float(rng.uniform(-0.2, 0.2))})
        rounds.append(_shuffled(rng, jobs))
    return rounds


def _stepfn(values: list[float]) -> hr.StepFunction:
    return hr.StepFunction(tuple(0.5 * i for i in range(len(values))), tuple(values))


def _sweep_job(params: dict, ctx: dict) -> Job:
    kind = params["kind"]
    if kind == "axiom":
        lat = ctx["lattices"][params["n"]]
        if params["family"] == "q_bsde":
            driver = hr.QuadraticQDriver(
                q=params["q"], rate=hr.HorizonSchedule.constant(params["rate"]))
        else:
            driver = hr.QuadraticQDriver.entropic()
        checker = params["axiom"]
        # a positive rate prices the horizon: longevity holds and restriction
        # fails; the zero-rate entropic family satisfies both
        expected = checker == "h_longevity" or params["family"] == "entropic_bsde"

        def run(trace):
            rho = lambda X, t, u: hr.g_risk_measure(lat, driver, X, t, u)
            if trace is not None:
                rho = trace.count_rho(rho)
            check_fn = hr.check_h_longevity if checker == "h_longevity" else hr.check_restriction
            return check_fn(rho, lat, samples=2, seed=params["seed"])

        cls = f"axiom/{checker}/{params['family']}/n{params['n']}"
        return Job("axiom", cls, params, run,
                   lambda rep: 0.0 if rep.passed == expected else BOOL_FAIL)

    if kind == "girsanov":
        lat = ctx["lattices"][64]
        driver = hr.LinearDriver(_stepfn(params["mu"]), _stepfn(params["nu"]),
                                 _stepfn(params["c"]))
        if "x" in params:
            X = hr.RandomVariable(lat, 32, params["x"])
        else:
            X = hr.RandomVariable(lat, 32, params["scale"] * np.tanh(lat.brownian(32)))
        sign_check = params["mu"] == [0.0]

        def run(trace):
            direct, formula = hr.longevity_girsanov(lat, driver, 0.0, 0.5, 1.0, X)
            return direct.values, formula.values

        def check(out):
            direct, formula = out
            if sign_check and np.min(direct) < -1e-9:
                return BOOL_FAIL
            return _max_dev(direct, formula, 5e-2)

        cls = "girsanov/" + ("step" if "x" in params else "constant")
        return Job("girsanov", cls, params, run, check)

    lat = ctx["lattices"][params["n"]]
    q = params["q"]
    sched = hr.HorizonSchedule.constant(params["rate"])
    driver = hr.QuadraticQDriver(q=q, rate=sched)
    b = lat.brownian(lat.n_steps)
    terminal = params["a"] * np.abs(b) + params["b"] * b + params["c"]
    X = hr.RandomVariable(lat, lat.n_steps, -terminal)

    def run(trace):
        direct = hr.g_risk_measure(lat, driver, X, 0.0, 1.0)
        transform = hr.quadratic_transform_solve(lat, q, sched, -X)
        return direct.values, transform.values

    return Job("transform", f"transform/n{params['n']}", params, run,
               lambda out: _max_dev(out[0], out[1], 1e-2))


# ---------------------------------------------------------------------------
# config-batch
# ---------------------------------------------------------------------------

SHIPPED_CONFIGS = ("bsde_convergence.json", "entropic_two_atom.json",
                   "hq_axioms.json", "longevity_linear_bsde.json")
TEMPLATE_SETS = 5      # generated configs per round: 5 draws of every template
RERUNS_PER_ROUND = 3


def _stepfn_cfg(values: list[float]) -> dict:
    return {"breakpoints": [0.5 * i for i in range(len(values))], "values": values}


def _lattice_cfg(steps: int) -> dict:
    return {"kind": "lattice", "steps": steps, "horizon": 1.0}


def _random_tree_cfg(depth: int, max_branching: int) -> dict:
    return {"kind": "random_tree", "depth": depth, "max_branching": max_branching}


def _grid_times(rng: np.random.Generator, steps: int) -> tuple[float, float, float]:
    i, j, k = sorted(int(v) for v in rng.choice(steps + 1, 3, replace=False))
    return i / steps, j / steps, k / steps


def _config_templates(rng: np.random.Generator) -> list[tuple[str, dict]]:
    """One draw of every template: (template name, config).  Model sizes are
    fixed per template so that every round costs the same; the seed draws
    the parameters, positions, times and the random trees' branching."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    out: list[tuple[str, dict]] = []
    for _ in range(4):
        p = u(0.2, 0.8)
        out.append(("entropic_two_atom", {
            "model": {"kind": "tree", "times": [0.0, 1.0], "nodes": [
                {"id": 0, "depth": 0, "parent": None, "p": 1.0},
                {"id": 1, "depth": 1, "parent": 0, "p": p},
                {"id": 2, "depth": 1, "parent": 0, "p": 1.0 - p}]},
            "measure": {"kind": "entropic", "b": u(0.5, 2.0)},
            "tasks": [{"kind": "evaluate", "t": 0.0, "u": 1.0, "position": {
                "kind": "values", "values": [u(-2, 2), u(-2, 2)]}}]}))
    for steps in (8, 16):
        t, uu, v = _grid_times(rng, steps)
        out.append(("h_entropic_lattice", {
            "model": _lattice_cfg(steps),
            "measure": {"kind": "h_entropic", "b": u(0.5, 1.5),
                        "a": _stepfn_cfg([u(0, 0.3), u(0, 0.3)])},
            "tasks": [{"kind": "evaluate", "t": t, "u": uu,
                       "position": {"kind": "uniform", "low": -2.0, "high": 2.0}},
                      {"kind": "longevity", "t": t, "u": uu, "v": v,
                       "position": {"kind": "uniform", "low": -2.0, "high": 2.0}}]}))
    for depth, branching in ((3, 2), (2, 3)):
        out.append(("q_entropic_axioms", {
            "model": _random_tree_cfg(depth, branching),
            "measure": {"kind": "q_entropic", "q": u(0.3, 0.95),
                        "alpha": u(-0.5, 0.5), "beta": u(0, 1)},
            "tasks": [{"kind": "evaluate", "position": {"kind": "uniform"}},
                      {"kind": "axioms", "samples": 8,
                       "checks": ["cash_subadditive", "monotone", "quasi_convex"],
                       "required": ["cash_subadditive", "monotone"]}]}))
    for depth, branching in ((3, 2), (2, 3)):
        model = _random_tree_cfg(depth, branching)
        out.append(("hq_entropic_sweep", {
            "model": model,
            "measure": {"kind": "hq_entropic", "q": u(0.3, 0.95),
                        "alpha": u(-0.5, 0.5), "beta": u(0, 1),
                        "a": _stepfn_cfg([u(0, 0.3)])},
            "tasks": [{"kind": "axioms", "samples": 6,
                       "checks": ["cash_subadditive", "h_longevity"],
                       "required": ["cash_subadditive", "h_longevity"]},
                      {"kind": "longevity", "t": 0.0, "u": 1.0 / model["depth"],
                       "v": 1.0, "position": {"kind": "uniform"}}]}))
    for _ in range(2):
        # 6 steps: an 8-step sweep is twice as slow and would set the tail alone
        out.append(("entropic_bsde_sweep", {
            "model": _lattice_cfg(6),
            "measure": {"kind": "bsde", "driver": {"kind": "entropic"}},
            "tasks": [{"kind": "axioms", "samples": 6,
                       "checks": ["restriction", "h_longevity", "normalized"],
                       "required": ["restriction", "h_longevity", "normalized"]}]}))
    for _ in range(2):
        out.append(("linear_bsde_longevity", {
            "model": _lattice_cfg(16),
            "measure": {"kind": "bsde", "driver": {
                "kind": "linear", "nu": _stepfn_cfg([u(-0.5, 0.5)]),
                "c": _stepfn_cfg([u(0, 0.3), u(0, 0.3)])}},
            "tasks": [{"kind": "longevity", "t": 0.0, "u": 0.5, "v": 1.0,
                       "position": {"kind": "uniform", "low": -1.0, "high": 1.0}}]}))
    q = u(0.5, 0.95)
    for driver in ({"kind": "entropic"}, {"kind": "zero"},
                   {"kind": "quadratic_q", "q": q, "a": _stepfn_cfg([u(0, 0.3)])}):
        # payoff X <= 1 keeps the terminal -X inside 1 + (1-q) y > 0
        out.append(("bsde_convergence", {
            "model": _lattice_cfg(16),
            "measure": {"kind": "bsde", "driver": driver},
            "tasks": [{"kind": "bsde-convergence", "grid": [4, 8, 16],
                       "payoff": {"kind": "uniform", "low": -1.0, "high": 1.0}}]}))
    for agg, tree in (({"kind": "additive"}, (3, 3)),
                      ({"kind": "scaled_additive", "beta": u(0.3, 1.0)}, (3, 2)),
                      ({"kind": "exponential", "gamma": u(0.2, 0.8)}, (2, 3))):
        utility = ({"kind": "linear"} if agg["kind"] == "exponential"
                   else {"kind": "exp_bounded", "gamma": u(0.5, 1.5)})
        out.append(("shortfall_tree", {
            "model": _random_tree_cfg(*tree),
            "measure": {"kind": "shortfall", "utility": utility, "aggregator": agg,
                        "target": u(0.0, 0.3) if agg["kind"] == "exponential" else 0.0},
            "tasks": [{"kind": "evaluate", "t": 0.0,
                       "position": {"kind": "uniform", "low": -2.0, "high": 2.0}},
                      {"kind": "axioms", "samples": 6,
                       "checks": ["monotone", "quasi_convex", "cash_subadditive"],
                       "required": ["monotone", "cash_subadditive"]}]}))
    out.append(("hq_shortfall_lattice", {
        "model": _lattice_cfg(8),
        "measure": {"kind": "shortfall", "utility": {"kind": "linear"},
                    "aggregator": {"kind": "hq", "q": u(0.3, 0.95),
                                   "alpha": u(-0.5, 0.5), "beta": u(0, 1),
                                   "a": _stepfn_cfg([u(0, 0.3)])},
                    "target": 0.0},
        "tasks": [{"kind": "evaluate", "t": 0.5,
                   "position": {"kind": "uniform", "low": -2.0, "high": 2.0}}]}))
    for utility, tree in (({"kind": "neg_exponential", "b": u(0.5, 1.5)}, (3, 3)),
                          ({"kind": "exp_bounded", "gamma": u(0.5, 1.5)}, (2, 2))):
        out.append(("certainty_equivalent", {
            "model": _random_tree_cfg(*tree),
            "measure": {"kind": "certainty_equivalent", "utility": utility},
            "tasks": [{"kind": "evaluate", "position": {"kind": "uniform",
                                                       "low": -2.0, "high": 2.0}}]}))
    for model in (_lattice_cfg(16), _random_tree_cfg(3, 2)):
        out.append(("h_var", {
            "model": model,
            "measure": {"kind": "h_var", "alpha": u(0.01, 0.2)},
            "tasks": [{"kind": "evaluate", "position": {"kind": "uniform"}},
                      {"kind": "axioms", "samples": 8,
                       "checks": ["monotone", "cash_additive"],
                       "required": ["monotone", "cash_additive"]}]}))
    out.append(("expected_loss", {
        "model": _random_tree_cfg(3, 3),
        "measure": {"kind": "expected_loss"},
        "tasks": [{"kind": "evaluate", "position": {"kind": "uniform"}},
                  {"kind": "axioms", "samples": 8,
                   "checks": ["cash_additive", "convex", "normalized"],
                   "required": ["cash_additive", "convex", "normalized"]}]}))
    for _ in range(2):
        q = u(0.5, 0.95)
        out.append(("q_bsde_lattice", {
            "model": _lattice_cfg(16),
            "measure": {"kind": "bsde", "driver": {"kind": "quadratic_q", "q": q}},
            # positions X <= 1 keep the terminal -X inside 1 + (1-q) y > 0
            "tasks": [{"kind": "evaluate", "t": 0.0,
                       "position": {"kind": "uniform", "low": -2.0, "high": 1.0}}]}))
    return out


def config_batch_params(seed: int, root: Path) -> list[list[dict]]:
    rng = _rng(seed, "config-batch")
    rounds = []
    for _ in range(N_ROUNDS):
        jobs = [{"kind": "shipped", "config": name} for name in SHIPPED_CONFIGS]
        for _ in range(TEMPLATE_SETS):
            # the k-th config of a template has the same model size and tasks
            # in every draw: (template, k) is the job's class
            seen: dict[str, int] = {}
            for template, cfg in _config_templates(rng):
                seen[template] = variant = seen.get(template, -1) + 1
                cfg["seed"] = int(rng.integers(0, 2**31))
                jobs.append({"kind": "generated", "template": template,
                             "variant": variant, "config": cfg})
        rerun = set(int(i) for i in rng.choice(len(jobs), RERUNS_PER_ROUND, replace=False))
        for i, job in enumerate(jobs):
            job["rerun"] = i in rerun
        rounds.append(_shuffled(rng, jobs))
    return rounds


def _tree_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _config_job(params: dict, ctx: dict) -> Job:
    # riskctl imports jsonschema; only this workload pays for it in setup
    from horizonrisk import cli as hr_cli

    workdir: Path = ctx["workdir"]
    generated = params["kind"] == "generated"
    if generated:
        path = workdir / f"cfg{next(ctx['config_ids']):04d}.json"
        text = json.dumps(params["config"])
    else:
        path = ctx["root"] / "configs" / params["config"]

    def execute() -> tuple[int, Path]:
        out_dir = workdir / f"out{next(ctx['out_ids']):05d}"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = hr_cli.run_config(path, out_dir=out_dir, jobs=1)
        return code, out_dir

    def run(trace):
        if generated:   # a batch writes each config just before running it
            path.write_text(text)
        code, out_dir = execute()
        if trace is not None and out_dir.is_dir():
            trace.add("cli.artifact_bytes",
                      sum(p.stat().st_size for p in out_dir.iterdir()))
        return code, out_dir

    def check(out):
        code, out_dir = out
        if code != hr_cli.EXIT_OK:
            return BOOL_FAIL
        files = _tree_bytes(out_dir)
        if not files:
            return BOOL_FAIL
        worst = 0.0
        if params.get("template") == "entropic_two_atom":
            cfg = params["config"]
            p = np.array([node["p"] for node in cfg["model"]["nodes"][1:]])
            x = np.array(cfg["tasks"][0]["position"]["values"])
            b = cfg["measure"]["b"]
            closed = math.log(float(np.dot(p, np.exp(-b * x)))) / b
            row = files["task00_evaluate.csv"].decode().splitlines()[1]
            root_value = float(row.split(",")[1])
            worst = _ratio(abs(root_value - closed) / max(1.0, abs(closed)), 1e-8)
        if params["rerun"]:
            code2, out2 = execute()
            if code2 != code or _tree_bytes(out2) != files:
                return BOOL_FAIL
        return worst

    cls = (f"generated/{params['template']}.{params['variant']}" if generated
           else f"shipped/{params['config']}")
    return Job(params["kind"], cls, params, run, check)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_WORKLOADS = {
    "desk-duality": (desk_duality_params, _desk_job),
    "lattice-nodewise": (lattice_nodewise_params, _lattice_job),
    "horizon-sweep": (horizon_sweep_params, _sweep_job),
    "config-batch": (config_batch_params, _config_job),
}
NAMES = tuple(_WORKLOADS)


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Generate the seeded job list of a workload and build its inputs:
    models, grids, specs, positions and (for config-batch) config files."""
    make_params, make_job = _WORKLOADS[name]
    rounds_params = make_params(seed, root)
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = {"root": root, "workdir": workdir,
           "config_ids": itertools.count(), "out_ids": itertools.count()}
    if name == "lattice-nodewise":
        ctx["lattices"] = {n: hr.BrownianLattice(n, 1.0) for n in LATTICE_SIZES}
    elif name == "horizon-sweep":
        ctx["lattices"] = {n: hr.BrownianLattice(n, 1.0)
                           for n in SWEEP_SIZES + (64,) + TRANSFORM_SIZES}
    rounds = [[make_job(p, ctx) for p in jobs] for jobs in rounds_params]
    return Workload(name, rounds, _digest(rounds_params))
