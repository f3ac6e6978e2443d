"""Batch front-end: run JSON-configured experiments and write CSV/JSON artifacts.

    riskctl run <config.json> [--out DIR] [--seed N]
    riskctl validate <config.json>

A config holds one experiment: a model section (lattice or explicit tree),
a measure section, a non-empty list of tasks (evaluate | axioms | duality |
bsde-convergence | longevity) and optional output/seed settings.

Each kinded section (model, measure, utility, aggregator, driver, position,
task) is one table with a row per kind: the keys the kind requires, its
optional keys with their defaults, and its builder, which is handed the
section with those defaults filled in.  :func:`load_config` checks a
config straight from the tables: a section's ``kind`` is a row of its
table, the section holds the keys its kind requires and no key that no kind
of the table takes, and each value passes the check of its key in
``_KEY_CHECKS`` (nested sections are checked as sections).  Every parameter
domain is re-checked while the objects are built.
Outputs are deterministic given the seed (floats printed with 9 significant
digits, '.' decimal, files written atomically).  A convergence task
resolves its payoff at u and evaluates rho_tu(payoff) on every lattice of
its grid.

Exit codes: 0 success, 2 config/schema violation (a missing or malformed
key, a non-finite number, off-grid or out-of-order task times, a position or
measure that does not fit its task, a duality task that breaks the static
rules of the dual; ``validate`` and ``run`` find them alike, before any
task runs), 3 numerical or solver error, or any other
exception a task raises, 4 a required axiom check failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import axioms as axioms_mod
from .bsde import (LinearDriver, QuadraticQDriver, g_risk_measure,
                   longevity_girsanov, quadratic_transform_solve)
from .duality import DualGrid, _dual_problem, dual_value
from .errors import ConfigurationError, RiskLibError
from .measures import (HorizonSchedule, LossSpec, StepFunction, UtilityFn,
                       certainty_equivalent, entropic, expected_loss,
                       h_entropic, hq_entropic_losses, longevity_index,
                       q_entropic_losses)
from .probspace import (BrownianLattice, FiltrationModel, RandomVariable,
                        ScenarioTree)
from .qcalculus import QParams
from .shortfall import (AggregatorFn, ShortfallSpec, TargetSchedule,
                        dynamic_shortfall, h_var, hq_shortfall_spec,
                        static_shortfall)

log = logging.getLogger("riskctl")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REQUIRED_AXIOM = 4


# ---------------------------------------------------------------------------
# config tables: one row per kind (every parameter domain is re-checked by
# the constructors the builders call)
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """One kind of a config section: its builder, the keys it cannot be
    built without, and its optional keys with their defaults."""
    build: Callable
    required: tuple[str, ...] = ()
    optional: dict[str, Any] = {}


def _with_defaults(table: dict[str, _Kind], cfg: dict) -> dict:
    return {**table[cfg["kind"]].optional, **cfg}


def _build(table: dict[str, _Kind], cfg: dict, *args):
    """Build a section with the builder of its kind, defaults filled in."""
    return table[cfg["kind"]].build(_with_defaults(table, cfg), *args)


def _build_stepfn(cfg: dict) -> StepFunction:
    return StepFunction(tuple(cfg["breakpoints"]), tuple(cfg["values"]))


def _build_schedule(cfg: dict | None) -> HorizonSchedule:
    if cfg is None:
        return HorizonSchedule.zero()
    return HorizonSchedule(_build_stepfn(cfg))


_UTILITIES = {
    "linear": _Kind(lambda c: UtilityFn.linear()),
    "exp_bounded": _Kind(lambda c: UtilityFn.exp_bounded(c["gamma"]),
                         optional={"gamma": 1.0}),
    "neg_exponential": _Kind(lambda c: UtilityFn.neg_exponential(c["b"]),
                             optional={"b": 1.0}),
}


_AGGREGATORS = {
    "additive": _Kind(lambda c: AggregatorFn.additive()),
    "scaled_additive": _Kind(lambda c: AggregatorFn.scaled_additive(c["beta"]),
                             ("beta",)),
    "exponential": _Kind(lambda c: AggregatorFn.exponential(c["gamma"]),
                         ("gamma",)),
    # hq aggregators depend on (t, u): the builder of them
    "hq": _Kind(lambda c: hq_shortfall_spec(
        QParams(q=c["q"], alpha_q=c["alpha"]), c["beta"],
        _build_schedule(c["a"])).aggregator_at,
        ("q",), {"alpha": 0.0, "beta": 0.0, "a": None}),
}

_MODELS = {
    "lattice": _Kind(lambda c, seed: BrownianLattice(c["steps"], c["horizon"]),
                     ("steps",), {"horizon": 1.0}),
    "tree": _Kind(lambda c, seed: ScenarioTree.from_json_dict(
        {"times": c["times"], "nodes": c["nodes"]}), ("times", "nodes")),
    "random_tree": _Kind(lambda c, seed: ScenarioTree.random(
        np.random.default_rng(seed), depth=c["depth"],
        max_branching=c["max_branching"]),
        optional={"depth": 3, "max_branching": 3}),
}


def _linear_driver(c: dict) -> LinearDriver:
    zero = StepFunction.constant(0.0)
    mu, nu, rate = (zero if c[key] is None else _build_stepfn(c[key])
                    for key in ("mu", "nu", "c"))
    return LinearDriver(mu=mu, nu=nu, c=rate)


_DRIVERS = {
    "zero": _Kind(lambda c: LinearDriver.from_constants()),
    "entropic": _Kind(lambda c: QuadraticQDriver.entropic()),
    "linear": _Kind(_linear_driver, optional={"mu": None, "nu": None, "c": None}),
    "quadratic_q": _Kind(lambda c: QuadraticQDriver(
        q=c["q"], rate=_build_schedule(c["a"])), ("q",), {"a": None}),
}


# measure builders: (section, model) -> (rho(X, t, u) at depth(t), the
# library object rho evaluates: a bsde measure's driver, a shortfall
# measure's spec, None for the closed forms)

def _loss_spec(c: dict) -> LossSpec:
    return LossSpec(beta=c["beta"],
                    qparams=QParams(q=c["q"], alpha_q=c["alpha"]))


def _h_entropic(c: dict, model) -> tuple:
    schedule = _build_schedule(c["a"])
    return (lambda X, t, u: h_entropic(X, t, u, c["b"], schedule)), None


def _q_entropic(c: dict, model) -> tuple:
    spec = _loss_spec(c)
    return (lambda X, t, u: q_entropic_losses(X, t, spec)), None


def _hq_entropic(c: dict, model) -> tuple:
    spec = _loss_spec(c)
    schedule = _build_schedule(c["a"])
    return (lambda X, t, u: hq_entropic_losses(X, t, u, spec, schedule)), None


def _bsde(c: dict, model) -> tuple:
    if not isinstance(model, BrownianLattice):
        raise ConfigurationError("bsde measures need a lattice model")
    driver = _build(_DRIVERS, c["driver"])
    return (lambda X, t, u: g_risk_measure(model, driver, X, t, u)), driver


def _shortfall(c: dict, model) -> tuple:
    spec = ShortfallSpec(_build(_UTILITIES, c["utility"]),
                         _build(_AGGREGATORS, c["aggregator"]),
                         TargetSchedule.constant(c["target"]))
    return (lambda X, t, u: dynamic_shortfall(X, t, spec, u)), spec


def _certainty_equivalent(c: dict, model) -> tuple:
    utility = _build(_UTILITIES, c["utility"])
    return (lambda X, t, u: certainty_equivalent(X, t, utility)), None


_LOSS_DEFAULTS = {"alpha": 0.0, "beta": 0.0}
_MEASURES = {
    "entropic": _Kind(lambda c, model: (
        lambda X, t, u: entropic(X, t, c["b"]), None), optional={"b": 1.0}),
    "h_entropic": _Kind(_h_entropic, optional={"b": 1.0, "a": None}),
    "q_entropic": _Kind(_q_entropic, ("q",), _LOSS_DEFAULTS),
    "hq_entropic": _Kind(_hq_entropic, ("q",), {**_LOSS_DEFAULTS, "a": None}),
    "expected_loss": _Kind(lambda c, model: (
        lambda X, t, u: expected_loss(X, t), None)),
    "bsde": _Kind(_bsde, ("driver",)),
    "shortfall": _Kind(_shortfall, optional={"utility": {"kind": "linear"},
                                             "aggregator": {"kind": "additive"},
                                             "target": 0.0}),
    "certainty_equivalent": _Kind(_certainty_equivalent, ("utility",)),
    "h_var": _Kind(lambda c, model: (
        lambda X, t, u: h_var(X, t, c["alpha"]), None),
        optional={"alpha": 0.05}),
}


# position builders: (section, model, depth, rng) -> RandomVariable

def _values_position(c: dict, model, depth: int, rng) -> RandomVariable:
    n = model.num_nodes(depth)
    if len(c["values"]) != n:
        raise ConfigurationError(
            f"position needs exactly {n} values at depth {depth}")
    return RandomVariable(model, depth, c["values"])


def _two_valued_position(c: dict, model, depth: int, rng) -> RandomVariable:
    if not isinstance(model, BrownianLattice):
        raise ConfigurationError("two_valued positions need a lattice model")
    b = model.brownian(depth)
    return RandomVariable(model, depth,
                          np.where(b >= c["threshold"], c["hi"], c["lo"]))


_POSITIONS = {
    "values": _Kind(_values_position, ("values",)),
    "constant": _Kind(lambda c, model, depth, rng:
                      model.constant(c["value"], depth),
                      optional={"value": 0.0}),
    "two_valued": _Kind(_two_valued_position,
                        optional={"threshold": 0.0, "lo": -1.0, "hi": 1.0}),
    "uniform": _Kind(lambda c, model, depth, rng: RandomVariable(
        model, depth, rng.uniform(c["low"], c["high"], model.num_nodes(depth))),
        optional={"low": -3.0, "high": 3.0}),
}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    x = float(x)
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "+inf" if x > 0 else "-inf"
    return format(x, ".9g")


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: Path, data: Any) -> None:
    _write_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# task runners: (task, index, experiment, out_dir) -> what run_config reads:
# the task kind, the files written and, for axioms, the table and the
# required checks that failed
# ---------------------------------------------------------------------------

class _Experiment(NamedTuple):
    """A built config: the model, the measure rho(X, t, u), the library
    object it evaluates (see the measure builders), the seed and each
    task's input."""
    model: FiltrationModel
    rho: Callable
    source: Any
    seed: int
    inputs: list


def _task_evaluate(task, idx, exp, out_dir):
    value = exp.rho(exp.inputs[idx], task["t"], task["u"])
    rows = [[i, value.values[i]] for i in range(len(value.values))]
    path = out_dir / f"task{idx:02d}_evaluate.csv"
    _write_csv(path, ["node", "value"], rows)
    return {"task": "evaluate", "files": [path.name]}


def _task_axioms(task, idx, exp, out_dir):
    t, u = task["t"], task["u"]
    depth = exp.model.depth_of(u)
    samples = task["samples"]
    bound = lambda X: exp.rho(X, t, u)
    reports = []
    for name in task["checks"]:
        check = axioms_mod.CHECKERS[name]
        if name in axioms_mod.SWEEPS:
            reports.append(check(exp.rho, exp.model,
                                 samples=max(2, samples // 3), seed=exp.seed))
        else:
            reports.append(check(bound, exp.model, samples=samples,
                                 depth=depth, seed=exp.seed))
    path = out_dir / f"task{idx:02d}_axioms.json"
    _write_json(path, [r.to_json_dict() for r in reports])
    required = set(task["required"])
    failed_required = [r.axiom for r in reports
                       if not r.passed and r.axiom in required]
    table = [f"  {r.axiom:<18} {'pass' if r.passed else 'FAIL':<5} "
             f"slack={_fmt(r.worst_slack)}" for r in reports]
    return {"task": "axioms", "files": [path.name], "table": table,
            "failed_required": failed_required}


def _task_duality(task, idx, exp, out_dir):
    X, grid = exp.inputs[idx]
    report = dual_value(X, exp.source, grid)
    static = float(static_shortfall(X, exp.source))
    dual = float(report.value)
    rows = [[*q, x, r] for q, x, r in zip(grid.measures, report.x_values,
                                          report.r_values)]
    csv_path = out_dir / f"task{idx:02d}_duality.csv"
    _write_csv(csv_path,
               [f"q{j}" for j in range(grid.n_atoms)] + ["eq_neg_x", "r"],
               rows)
    json_path = out_dir / f"task{idx:02d}_duality.json"
    _write_json(json_path, {
        "dual_value": _fmt(dual),
        "static_shortfall": _fmt(static),
        "gap": _fmt(static - dual),
        "argmax_q": [_fmt(v) for v in report.best_q],
    })
    return {"task": "duality", "files": [csv_path.name, json_path.name]}


def _task_convergence(task, idx, exp, out_dir):
    # the entropic driver is the quadratic one with q = 1 and zero rate
    driver, t, u = exp.source, task["t"], task["u"]
    rows = []
    for lattice, X in exp.inputs[idx]:
        value = g_risk_measure(lattice, driver, X, t, u)
        if isinstance(driver, QuadraticQDriver):
            ref = quadratic_transform_solve(lattice, driver.q, driver.rate,
                                            -X, t)
        else:
            ref = expected_loss(X, t)
        err = float(np.max(np.abs(value.values - ref.values)))
        rows.append([lattice.n_steps, value.values[0], err])
    path = out_dir / f"task{idx:02d}_convergence.csv"
    _write_csv(path, ["n_steps", "value", "abs_error"], rows)
    return {"task": "bsde-convergence", "files": [path.name]}


def _task_longevity(task, idx, exp, out_dir):
    t, u, v = task["t"], task["u"], task["v"]
    X = exp.inputs[idx]
    header = ["node", "gamma"]
    if isinstance(exp.source, LinearDriver):
        columns = longevity_girsanov(exp.model, exp.source, t, u, v, X)
        header.append("gamma_formula")
    else:
        columns = (longevity_index(exp.rho, t, u, v, X),)
    rows = [[i, *r] for i, r in enumerate(zip(*[c.values for c in columns]))]
    path = out_dir / f"task{idx:02d}_longevity.csv"
    _write_csv(path, header, rows)
    return {"task": "longevity", "files": [path.name]}


_CONSTANT = {"kind": "constant"}
_TASKS = {
    "evaluate": _Kind(_task_evaluate, optional={"position": _CONSTANT}),
    "axioms": _Kind(_task_axioms, ("checks",), {"required": [], "samples": 12}),
    "duality": _Kind(_task_duality, optional={"position": _CONSTANT,
                                              "resolution": 0.05}),
    "bsde-convergence": _Kind(_task_convergence, ("grid",),
                              {"payoff": _CONSTANT}),
    "longevity": _Kind(_task_longevity, optional={"position": _CONSTANT}),
}


# ---------------------------------------------------------------------------
# config checks, read off the tables
# ---------------------------------------------------------------------------

def _integer(low: int) -> Callable:
    return lambda v: type(v) is int and v >= low  # an integer literal, not 4.0


def _number(v) -> bool:
    return type(v) in (int, float)  # never a bool


def _positive(v) -> bool:
    return _number(v) and v > 0


def _list_of(item: Callable, min_items: int = 0) -> Callable:
    return lambda v: (isinstance(v, list) and len(v) >= min_items
                      and all(map(item, v)))


def _object_of(checks: dict[str, Callable]) -> Callable:
    """An object with exactly the keys of ``checks``, each value valid."""
    return lambda v: (isinstance(v, dict) and v.keys() == checks.keys()
                      and all(checks[key](x) for key, x in v.items()))


_STEPFN = _object_of({"breakpoints": _list_of(_number, 1),
                      "values": _list_of(_number, 1)})
_AXIOM = lambda v: isinstance(v, str) and v in axioms_mod.CHECKERS

# the check of every key (a key means the same wherever it occurs) but the
# sections, which are checked as sections
_KEY_CHECKS: dict[str, Callable] = {
    "steps": _integer(1),
    "horizon": _positive,
    "times": _list_of(_number, 2),
    "nodes": _list_of(_object_of({
        "id": _integer(0), "depth": _integer(0), "p": _number,
        "parent": lambda v: v is None or type(v) is int}), 1),
    "depth": _integer(1),
    "max_branching": _integer(2),
    **dict.fromkeys(("b", "q", "alpha", "beta", "gamma", "target", "value",
                     "threshold", "lo", "hi", "low", "high", "t", "u", "v"),
                    _number),
    **dict.fromkeys(("a", "mu", "nu", "c"), _STEPFN),
    "values": _list_of(_number),
    "checks": _list_of(_AXIOM, 1),
    "required": _list_of(_AXIOM),
    "samples": _integer(1),
    "resolution": _positive,
    "grid": _list_of(_integer(2), 1),
    "seed": _integer(0),
    "output": _object_of({"dir": lambda v: isinstance(v, str)}),
    "tasks": _list_of(lambda task: True, 1),  # each checked as a section
}
_SECTIONS = {"model": _MODELS, "measure": _MEASURES, "utility": _UTILITIES,
             "aggregator": _AGGREGATORS, "driver": _DRIVERS,
             "position": _POSITIONS, "payoff": _POSITIONS}


def _violation(message: str) -> ConfigurationError:
    return ConfigurationError(f"config schema violation: {message}")


def _require(cfg, keys) -> None:
    """Reject a non-object, or an object that lacks one of ``keys``."""
    if not isinstance(cfg, dict):
        raise _violation(f"{cfg!r} is not of type 'object'")
    for key in keys:
        if key not in cfg:
            raise _violation(f"'{key}' is a required property")


def _check_values(cfg: dict, known: set[str]) -> None:
    """Reject unknown keys, then invalid values; nested sections are checked
    as sections."""
    unknown = [key for key in cfg if key not in known]
    if unknown:
        raise _violation(f"Additional properties are not allowed "
                         f"({', '.join(map(repr, unknown))} "
                         f"{'was' if len(unknown) == 1 else 'were'} unexpected)")
    for key, value in cfg.items():
        if key in _SECTIONS:
            _check_section(_SECTIONS[key], value)
        elif key != "kind" and not _KEY_CHECKS[key](value):
            raise _violation(f"{value!r} is not a valid '{key}'")


def _check_section(table: dict[str, _Kind], cfg,
                   shared: tuple[str, ...] = ()) -> None:
    """Check a kinded section: its kind is a row of the table, the keys the
    kind requires are present, and every key is a key of some kind of the
    table (or shared) with a valid value."""
    _require(cfg, ("kind",))
    kind = cfg["kind"]
    if not (isinstance(kind, str) and kind in table):
        raise _violation(f"{kind!r} is not one of {list(table)}")
    _require(cfg, table[kind].required)
    known = {"kind", *shared}
    for row in table.values():
        known.update(row.required, row.optional)
    _check_values(cfg, known)


def _check_config(cfg) -> None:
    _require(cfg, ("model", "measure", "tasks"))
    _check_values(cfg, {"model", "measure", "tasks", "seed", "output"})
    for task in cfg["tasks"]:
        # t, u and v, keys of every task kind, get their defaults from the
        # model in _build_experiment
        _check_section(_TASKS, task, ("t", "u", "v"))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _finite_number(literal: str) -> float:
    value = float(literal)  # also parses NaN, +-Infinity and 1e999 (to inf)
    if not np.isfinite(value):
        shown = literal if len(literal) <= 24 else literal[:20] + "..."
        raise ConfigurationError(f"config holds {shown}, not a finite float")
    return value


def _float_range_int(literal: str) -> int:
    _finite_number(literal)  # digits beyond float range parse to inf
    return int(literal)


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, parse_constant=_finite_number,
                         parse_float=_finite_number,
                         parse_int=_float_range_int)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    _check_config(cfg)
    return cfg


def _build_experiment(cfg: dict, seed: int) -> _Experiment:
    """Build the model, the measure and each task's input for the runners,
    which read nothing else of the config but their task's keys: its
    position, (position, dual grid) for a duality task, or (lattice, payoff)
    per grid lattice.  Resolve every task's times: fill in the defaults
    t = 0 and u = v = horizon, put each time on its grid and check the order
    t <= u <= v.  Every ``required`` axiom must be checked, and the measure
    must fit the task; a duality task must meet the static rules of the
    dual, t at depth 0 and u at the horizon among them."""
    model = _build(_MODELS, cfg["model"], seed)
    measure = cfg["measure"]
    exp = _Experiment(model, *_build(_MEASURES, measure, model), seed, [])
    for i, task in enumerate(cfg["tasks"]):
        task.setdefault("t", 0.0)
        task.setdefault("u", model.horizon)
        task.setdefault("v", model.horizon)
        grids = [model]
        if task["kind"] == "bsde-convergence":
            grids = [BrownianLattice(n, model.horizon) for n in task["grid"]]
        for grid in grids:
            for key in ("t", "u", "v"):
                grid.depth_of(task[key])  # TimeGridError if off-grid
        if not task["t"] <= task["u"] <= task["v"]:
            raise ConfigurationError(
                f"task {i} needs t <= u <= v, got t={task['t']}, "
                f"u={task['u']}, v={task['v']}")
        unchecked = set(task.get("required", [])) - set(task.get("checks", []))
        if unchecked:
            raise ConfigurationError(
                f"task {i} requires axioms it does not check: "
                f"{', '.join(sorted(unchecked))}")
        full = _with_defaults(_TASKS, task)
        # each task draws its positions at depth(u) from its own stream
        draw = lambda section, grid: _build(
            _POSITIONS, section, grid, grid.depth_of(task["u"]),
            np.random.default_rng(seed + i))
        if task["kind"] == "bsde-convergence":
            if measure["kind"] != "bsde":
                raise ConfigurationError(
                    "bsde-convergence tasks need a bsde measure")
            if measure["driver"]["kind"] == "linear":
                raise ConfigurationError(
                    "no closed-form reference for general linear drivers")
            exp.inputs.append([(grid, draw(full["payoff"], grid))
                               for grid in grids])
        elif task["kind"] == "duality":
            if measure["kind"] != "shortfall":
                raise ConfigurationError(
                    "duality tasks need a shortfall measure")
            kt, ku = model.depth_of(task["t"]), model.depth_of(task["u"])
            if (kt, ku) != (0, model.terminal_depth):
                raise ConfigurationError(
                    f"task {i} is a static dual: it needs depth(t) = 0 and "
                    f"depth(u) = {model.terminal_depth}, got {kt} and {ku}")
            X = draw(full["position"], model)
            _dual_problem(exp.source, model)
            exp.inputs.append((X, DualGrid.simplex(
                model.num_nodes(X.depth), full["resolution"])))
        else:
            exp.inputs.append(draw(full["position"], model)
                              if "position" in full else None)
    return exp


def validate_config(path: str | Path) -> dict:
    """Schema validation plus a dry build of the model, measure and tasks."""
    cfg = load_config(path)
    _build_experiment(cfg, cfg.get("seed", 0))
    return cfg


def run_config(path: str | Path, out_dir: str | Path | None = None,
               seed: int | None = None, jobs: int = 1) -> int:
    """Run every task of a config in order and return the exit code.
    ``jobs`` is unused and kept only for callers that still pass it."""
    try:
        cfg = load_config(path)
        exp = _build_experiment(
            cfg, seed if seed is not None else cfg.get("seed", 0))
        target_dir = Path(out_dir if out_dir is not None
                          else cfg.get("output", {}).get("dir", "."))
        target_dir.mkdir(parents=True, exist_ok=True)
    except (RiskLibError, ValueError) as exc:
        log.debug("configuration rejected", exc_info=True)
        print(f"riskctl: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        results = [_build(_TASKS, task, i, exp, target_dir)
                   for i, task in enumerate(cfg["tasks"])]
    except RiskLibError as exc:
        print(f"riskctl: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # a failed task is an outcome, not a crash
        log.debug("task raised", exc_info=True)
        print(f"riskctl: numerical error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL

    failed_required: list[str] = []
    for i, res in enumerate(results):
        print(f"task {i} [{res['task']}] -> {', '.join(res['files'])}")
        for line in res.get("table", []):
            print(line)
        failed_required.extend(res.get("failed_required", []))
    if failed_required:
        print(f"riskctl: required axiom checks failed: "
              f"{', '.join(failed_required)}", file=sys.stderr)
        return EXIT_REQUIRED_AXIOM
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("RISKCTL_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = argparse.ArgumentParser(
        prog="riskctl",
        description="Evaluate dynamic risk measures from a JSON experiment config",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run all tasks in a config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None)
    val_p = sub.add_parser("validate", help="validate a config without running")
    val_p.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "validate":
        try:
            validate_config(args.config)
        except (RiskLibError, ValueError) as exc:
            print(f"riskctl: config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print("config ok")
        return EXIT_OK
    return run_config(args.config, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
