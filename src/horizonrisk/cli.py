"""Batch front-end: run JSON-configured experiments and write CSV/JSON artifacts.

    riskctl run <config.json> [--out DIR] [--seed N]
    riskctl validate <config.json>

A config holds one experiment: a model section (lattice or explicit tree),
a measure section, a non-empty list of tasks (evaluate | axioms | duality |
bsde-convergence | longevity) and optional output/seed settings.  Configs
are schema-validated with unknown keys rejected, and every parameter domain
is re-checked while the objects are built.  Outputs are deterministic given
the seed (floats printed with 9 significant digits, '.' decimal, files
written atomically); the optional wall-time column of convergence tables is
left empty unless ``timing`` is enabled, precisely so that repeated runs
stay byte-identical.

Exit codes: 0 success, 2 config/schema violation (non-finite numbers,
integers beyond float range, off-grid task times, task times out of the
order t <= u <= v, an axioms task without checks, a bsde-convergence task
without grid and required axioms missing from checks included), 3
numerical or solver error, 4 a required axiom check failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover - dependency is declared
    jsonschema = None

from . import axioms as axioms_mod
from .bsde import (LinearDriver, QuadraticQDriver, g_risk_measure,
                   longevity_girsanov, quadratic_transform_solve)
from .duality import DualGrid, dual_value
from .errors import RiskLibError
from .measures import (HorizonSchedule, LossSpec, StepFunction, UtilityFn,
                       certainty_equivalent, entropic, expected_loss,
                       h_entropic, hq_entropic_losses, q_entropic_losses)
from .probspace import BrownianLattice, RandomVariable, ScenarioTree
from .qcalculus import QParams
from .shortfall import (AggregatorFn, ShortfallSpec, TargetSchedule,
                        dynamic_shortfall, h_var, static_shortfall)

log = logging.getLogger("riskctl")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REQUIRED_AXIOM = 4


class ConfigError(RiskLibError):
    """Experiment configuration rejected."""


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

_STEPFN = {
    "type": "object",
    "properties": {
        "breakpoints": {"type": "array", "items": {"type": "number"},
                        "minItems": 1},
        "values": {"type": "array", "items": {"type": "number"},
                   "minItems": 1},
    },
    "required": ["breakpoints", "values"],
    "additionalProperties": False,
}

_UTILITY = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["linear", "exp_bounded", "neg_exponential"]},
        "gamma": {"type": "number"},
        "b": {"type": "number"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_AGGREGATOR = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["additive", "scaled_additive", "exponential", "hq"]},
        "beta": {"type": "number"},
        "gamma": {"type": "number"},
        "q": {"type": "number"},
        "alpha": {"type": "number"},
        "a": _STEPFN,
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_DRIVER = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["zero", "entropic", "linear", "quadratic_q"]},
        "mu": _STEPFN,
        "nu": _STEPFN,
        "c": _STEPFN,
        "q": {"type": "number"},
        "a": _STEPFN,
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_POSITION = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["values", "constant", "two_valued", "uniform"]},
        "values": {"type": "array", "items": {"type": "number"}},
        "value": {"type": "number"},
        "threshold": {"type": "number"},
        "lo": {"type": "number"},
        "hi": {"type": "number"},
        "low": {"type": "number"},
        "high": {"type": "number"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_AXIOM = {"enum": list(axioms_mod.CHECKERS)}

_TASK = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["evaluate", "axioms", "duality",
                          "bsde-convergence", "longevity"]},
        "t": {"type": "number"},
        "u": {"type": "number"},
        "v": {"type": "number"},
        "position": _POSITION,
        "checks": {"type": "array", "items": _AXIOM, "minItems": 1},
        "required": {"type": "array", "items": _AXIOM},
        "samples": {"type": "integer", "minimum": 1},
        "resolution": {"type": "number", "exclusiveMinimum": 0},
        "grid": {"type": "array", "items": {"type": "integer", "minimum": 2},
                 "minItems": 1},
        "payoff": _POSITION,
        "timing": {"type": "boolean"},
        "name": {"type": "string"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["lattice", "tree", "random_tree"]},
                "steps": {"type": "integer", "minimum": 1},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "times": {"type": "array", "items": {"type": "number"},
                          "minItems": 2},
                "nodes": {"type": "array"},
                "depth": {"type": "integer", "minimum": 1},
                "max_branching": {"type": "integer", "minimum": 2},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
        "measure": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["entropic", "h_entropic", "q_entropic",
                                  "hq_entropic", "expected_loss", "bsde",
                                  "shortfall", "certainty_equivalent",
                                  "h_var"]},
                "b": {"type": "number"},
                "q": {"type": "number"},
                "alpha": {"type": "number"},
                "beta": {"type": "number"},
                "a": _STEPFN,
                "driver": _DRIVER,
                "utility": _UTILITY,
                "aggregator": _AGGREGATOR,
                "target": {"type": "number"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "tasks": {"type": "array", "items": _TASK, "minItems": 1},
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"}},
            "required": ["dir"],
            "additionalProperties": False,
        },
    },
    "required": ["model", "measure", "tasks"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# builders (every parameter domain re-checked by the constructors they call)
# ---------------------------------------------------------------------------

def _build_stepfn(cfg: dict) -> StepFunction:
    return StepFunction(tuple(cfg["breakpoints"]), tuple(cfg["values"]))


def _build_schedule(cfg: dict | None) -> HorizonSchedule:
    if cfg is None:
        return HorizonSchedule.zero()
    return HorizonSchedule(_build_stepfn(cfg))


def _build_utility(cfg: dict) -> UtilityFn:
    kind = cfg["kind"]
    if kind == "linear":
        return UtilityFn.linear()
    if kind == "exp_bounded":
        return UtilityFn.exp_bounded(cfg.get("gamma", 1.0))
    return UtilityFn.neg_exponential(cfg.get("b", 1.0))


def _build_aggregator(cfg: dict):
    kind = cfg["kind"]
    if kind == "additive":
        return AggregatorFn.additive()
    if kind == "scaled_additive":
        return AggregatorFn.scaled_additive(cfg["beta"])
    if kind == "exponential":
        return AggregatorFn.exponential(cfg["gamma"])
    # hq aggregators depend on (t, u); return a builder
    qp = QParams(q=cfg["q"], alpha_q=cfg.get("alpha", 0.0))
    beta = cfg.get("beta", 0.0)
    schedule = _build_schedule(cfg.get("a"))

    def builder(t: float, u: float) -> AggregatorFn:
        return AggregatorFn.hq(qp, beta,
                               horizon_term=schedule.integral(t, u),
                               target=0.0)

    return builder


def _build_model(cfg: dict, seed: int):
    kind = cfg["kind"]
    if kind == "lattice":
        if "steps" not in cfg:
            raise ConfigError("lattice model needs 'steps'")
        return BrownianLattice(cfg["steps"], cfg.get("horizon", 1.0))
    if kind == "tree":
        if "times" not in cfg or "nodes" not in cfg:
            raise ConfigError("tree model needs 'times' and 'nodes'")
        return ScenarioTree.from_json_dict({"times": cfg["times"],
                                            "nodes": cfg["nodes"]})
    rng = np.random.default_rng(seed)
    return ScenarioTree.random(rng, depth=cfg.get("depth", 3),
                               max_branching=cfg.get("max_branching", 3))


def _build_driver(cfg: dict):
    kind = cfg["kind"]
    if kind == "zero":
        return LinearDriver.from_constants()
    if kind == "entropic":
        return QuadraticQDriver.entropic()
    if kind == "linear":
        zero = StepFunction.constant(0.0)
        return LinearDriver(
            mu=_build_stepfn(cfg["mu"]) if "mu" in cfg else zero,
            nu=_build_stepfn(cfg["nu"]) if "nu" in cfg else zero,
            c=_build_stepfn(cfg["c"]) if "c" in cfg else zero,
        )
    if "q" not in cfg:
        raise ConfigError("quadratic_q drivers need 'q'")
    return QuadraticQDriver(q=cfg["q"], rate=_build_schedule(cfg.get("a")))


def _build_shortfall_spec(cfg: dict) -> ShortfallSpec:
    utility = _build_utility(cfg.get("utility", {"kind": "linear"}))
    aggregator = _build_aggregator(cfg.get("aggregator", {"kind": "additive"}))
    targets = TargetSchedule.constant(cfg.get("target", 0.0))
    return ShortfallSpec(utility, aggregator, targets)


def _build_rho_family(cfg: dict, model) -> Callable:
    """Measure as a family rho(X, t, u) -> RandomVariable at depth(t)."""
    kind = cfg["kind"]
    if kind == "entropic":
        b = cfg.get("b", 1.0)
        return lambda X, t, u: entropic(X, t, b)
    if kind == "h_entropic":
        b = cfg.get("b", 1.0)
        schedule = _build_schedule(cfg.get("a"))
        return lambda X, t, u: h_entropic(X, t, u, b, schedule)
    if kind == "q_entropic":
        if "q" not in cfg:
            raise ConfigError("q_entropic needs 'q'")
        spec = LossSpec(beta=cfg.get("beta", 0.0),
                        qparams=QParams(q=cfg["q"], alpha_q=cfg.get("alpha", 0.0)))
        return lambda X, t, u: q_entropic_losses(X, t, spec)
    if kind == "hq_entropic":
        if "q" not in cfg:
            raise ConfigError("hq_entropic needs 'q'")
        spec = LossSpec(beta=cfg.get("beta", 0.0),
                        qparams=QParams(q=cfg["q"], alpha_q=cfg.get("alpha", 0.0)))
        schedule = _build_schedule(cfg.get("a"))
        return lambda X, t, u: hq_entropic_losses(X, t, u, spec, schedule)
    if kind == "expected_loss":
        return lambda X, t, u: expected_loss(X, t)
    if kind == "bsde":
        if "driver" not in cfg:
            raise ConfigError("bsde measures need a 'driver'")
        if not isinstance(model, BrownianLattice):
            raise ConfigError("bsde measures need a lattice model")
        driver = _build_driver(cfg["driver"])
        return lambda X, t, u: g_risk_measure(model, driver, X, t, u)
    if kind == "shortfall":
        spec = _build_shortfall_spec(cfg)
        return lambda X, t, u: dynamic_shortfall(X, t, spec, u)
    if kind == "certainty_equivalent":
        if "utility" not in cfg:
            raise ConfigError("certainty_equivalent needs a 'utility'")
        utility = _build_utility(cfg["utility"])
        return lambda X, t, u: certainty_equivalent(X, t, utility)
    alpha = cfg.get("alpha", 0.05)
    return lambda X, t, u: h_var(X, t, alpha)


def _build_position(cfg: dict, model, depth: int,
                    rng: np.random.Generator) -> RandomVariable:
    kind = cfg["kind"]
    n = model.num_nodes(depth)
    if kind == "values":
        vals = cfg.get("values")
        if vals is None or len(vals) != n:
            raise ConfigError(
                f"position needs exactly {n} values at depth {depth}"
            )
        return RandomVariable(model, depth, vals)
    if kind == "constant":
        return model.constant(cfg.get("value", 0.0), depth)
    if kind == "two_valued":
        if not isinstance(model, BrownianLattice):
            raise ConfigError("two_valued positions need a lattice model")
        theta = cfg.get("threshold", 0.0)
        lo, hi = cfg.get("lo", -1.0), cfg.get("hi", 1.0)
        b = model.brownian(depth)
        return RandomVariable(model, depth, np.where(b >= theta, hi, lo))
    return RandomVariable(
        model, depth, rng.uniform(cfg.get("low", -3.0), cfg.get("high", 3.0), n)
    )


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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else _fmt(cell) for cell in row
        ))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: Path, data: Any) -> None:
    _write_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

def _task_position(idx, task, model, seed) -> RandomVariable:
    """The task's position at depth(u), drawn from the task's own stream."""
    return _build_position(task.get("position", {"kind": "constant"}), model,
                           model.depth_of(task["u"]),
                           np.random.default_rng(seed + idx))


def _task_evaluate(idx, task, cfg, model, out_dir, seed):
    X = _task_position(idx, task, model, seed)
    rho = _build_rho_family(cfg["measure"], model)
    value = rho(X, task["t"], task["u"])
    rows = [[i, value.values[i]] for i in range(len(value.values))]
    path = out_dir / f"task{idx:02d}_evaluate.csv"
    _write_csv(path, ["node", "value"], rows)
    return {"task": "evaluate", "files": [path.name],
            "root_value": _fmt(value.values[0])}


def _task_axioms(idx, task, cfg, model, out_dir, seed):
    rho_family = _build_rho_family(cfg["measure"], model)
    t, u = task["t"], task["u"]
    depth = model.depth_of(u)
    samples = task.get("samples", 12)
    bound = lambda X: rho_family(X, t, u)
    reports = []
    for name in task["checks"]:
        check = axioms_mod.CHECKERS[name]
        if name in axioms_mod.SWEEPS:
            reports.append(check(rho_family, model,
                                 samples=max(2, samples // 3), seed=seed))
        else:
            reports.append(check(bound, model, samples=samples, depth=depth,
                                 seed=seed))
    path = out_dir / f"task{idx:02d}_axioms.json"
    _write_json(path, [r.to_json_dict() for r in reports])
    required = set(task.get("required", []))
    failed_required = [r.axiom for r in reports
                       if not r.passed and r.axiom in required]
    table = [f"  {r.axiom:<18} {'pass' if r.passed else 'FAIL':<5} "
             f"slack={_fmt(r.worst_slack)}" for r in reports]
    return {"task": "axioms", "files": [path.name], "table": table,
            "failed_required": failed_required}


def _task_duality(idx, task, cfg, model, out_dir, seed):
    if cfg["measure"]["kind"] != "shortfall":
        raise ConfigError("duality tasks need a shortfall measure")
    X = _task_position(idx, task, model, seed)
    spec = _build_shortfall_spec(cfg["measure"])
    grid = DualGrid.simplex(model.num_nodes(X.depth),
                            task.get("resolution", 0.05))
    report = dual_value(X, spec, grid, u=task["u"])
    static = static_shortfall(X, spec, u=task["u"])
    static_f = static if isinstance(static, float) else static.as_float()
    dual_f = (report.value if isinstance(report.value, float)
              else report.value.as_float())
    rows = []
    for i in range(len(grid)):
        rows.append(list(grid.measures[i]) + [report.x_values[i],
                                              report.r_values[i]])
    csv_path = out_dir / f"task{idx:02d}_duality.csv"
    _write_csv(csv_path,
               [f"q{j}" for j in range(grid.n_atoms)] + ["eq_neg_x", "r"],
               rows)
    summary = {
        "dual_value": _fmt(dual_f),
        "static_shortfall": _fmt(static_f),
        "gap": _fmt(static_f - dual_f),
        "argmax_q": [_fmt(v) for v in report.best_q],
    }
    json_path = out_dir / f"task{idx:02d}_duality.json"
    _write_json(json_path, summary)
    return {"task": "duality", "files": [csv_path.name, json_path.name],
            "summary": summary}


def _task_convergence(idx, task, cfg, model, out_dir, seed):
    measure = cfg["measure"]
    if measure["kind"] != "bsde":
        raise ConfigError("bsde-convergence tasks need a bsde measure")
    driver_cfg = measure["driver"]
    kind = driver_cfg["kind"]
    if kind == "linear":
        raise ConfigError("no closed-form reference for general linear drivers")
    t = task["t"]
    timing = task.get("timing", False)
    rows = []
    for n_steps in task["grid"]:
        lattice = BrownianLattice(n_steps, model.horizon)
        rng = np.random.default_rng(seed + idx)
        X = _build_position(task.get("payoff", {"kind": "constant"}),
                            lattice, lattice.terminal_depth, rng)
        driver = _build_driver(driver_cfg)
        started = time.perf_counter()
        value = g_risk_measure(lattice, driver, X, t, lattice.horizon)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if kind == "entropic":
            ref = entropic(X, t, 1.0)
        elif kind == "zero":
            ref = expected_loss(X, t)
        else:
            ref = quadratic_transform_solve(
                lattice, driver_cfg["q"],
                _build_schedule(driver_cfg.get("a")),
                -X, t,
            )
        err = float(np.max(np.abs(value.values - ref.values)))
        rows.append([n_steps, value.values[0], err,
                     _fmt(elapsed_ms) if timing else ""])
    path = out_dir / f"task{idx:02d}_convergence.csv"
    _write_csv(path, ["n_steps", "value", "abs_error", "runtime_ms"], rows)
    return {"task": "bsde-convergence", "files": [path.name],
            "errors": [_fmt(r[2]) for r in rows]}


def _task_longevity(idx, task, cfg, model, out_dir, seed):
    t, u, v = task["t"], task["u"], task["v"]
    X = _task_position(idx, task, model, seed)
    rho = _build_rho_family(cfg["measure"], model)
    gamma = rho(X, t, v) - rho(X, t, u)
    header = ["node", "gamma"]
    rows: list[list] = [[i, gamma.values[i]] for i in range(len(gamma.values))]
    measure = cfg["measure"]
    if measure["kind"] == "bsde" and measure["driver"]["kind"] in ("linear", "zero"):
        driver = _build_driver(measure["driver"])
        _, formula = longevity_girsanov(model, driver, t, u, v, X)
        header.append("gamma_formula")
        for i, row in enumerate(rows):
            row.append(formula.values[i])
    path = out_dir / f"task{idx:02d}_longevity.csv"
    _write_csv(path, header, rows)
    return {"task": "longevity", "files": [path.name],
            "min_gamma": _fmt(float(np.min(gamma.values)))}


_TASK_RUNNERS = {
    "evaluate": _task_evaluate,
    "axioms": _task_axioms,
    "duality": _task_duality,
    "bsde-convergence": _task_convergence,
    "longevity": _task_longevity,
}
# the one key each of these task kinds cannot run without
_TASK_KEYS = {"axioms": "checks", "bsde-convergence": "grid"}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _finite_number(literal: str) -> float:
    value = float(literal)  # also parses NaN, +-Infinity and 1e999 (to inf)
    if not np.isfinite(value):
        shown = literal if len(literal) <= 24 else literal[:20] + "..."
        raise ConfigError(f"config holds {shown}, not a finite float")
    return value


def _float_range_int(literal: str) -> int:
    _finite_number(literal)  # digits beyond float range parse to inf
    return int(literal)


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, parse_constant=_finite_number,
                         parse_float=_finite_number,
                         parse_int=_float_range_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if jsonschema is None:  # pragma: no cover
        raise ConfigError("jsonschema is required to validate configs")
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return cfg


def _build_experiment(cfg: dict, seed: int):
    """Build the model and measure, and resolve every task's times for the
    task runners: fill in the defaults t = 0 and u = v = horizon, put each
    time on its grid and check the order t <= u <= v.  An axioms task needs
    ``checks``, a bsde-convergence task ``grid``, and every ``required``
    axiom must also be one of the task's ``checks``."""
    model = _build_model(cfg["model"], seed)
    _build_rho_family(cfg["measure"], model)
    for i, task in enumerate(cfg["tasks"]):
        needed = _TASK_KEYS.get(task["kind"])
        if needed is not None and needed not in task:
            raise ConfigError(f"task {i} ({task['kind']}) needs '{needed}'")
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
            raise ConfigError(f"task {i} needs t <= u <= v, got t={task['t']}, "
                              f"u={task['u']}, v={task['v']}")
        unchecked = set(task.get("required", [])) - set(task.get("checks", []))
        if unchecked:
            raise ConfigError(f"task {i} requires axioms it does not check: "
                              f"{', '.join(sorted(unchecked))}")
    return model


def validate_config(path: str | Path) -> dict:
    """Schema validation plus a dry build of the model, measure and task times."""
    cfg = load_config(path)
    _build_experiment(cfg, cfg.get("seed", 0))
    return cfg


def run_config(path: str | Path, out_dir: str | Path | None = None,
               seed: int | None = None, jobs: int = 1) -> int:
    """Run every task of a config in order and return the exit code.
    ``jobs`` is unused and kept only for callers that still pass it."""
    try:
        cfg = load_config(path)
        effective_seed = seed if seed is not None else cfg.get("seed", 0)
        model = _build_experiment(cfg, effective_seed)
        target_dir = Path(out_dir if out_dir is not None
                          else cfg.get("output", {}).get("dir", "."))
        target_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, RiskLibError, ValueError) as exc:
        log.error("configuration rejected: %s", exc)
        print(f"riskctl: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        results = [_TASK_RUNNERS[task["kind"]](i, task, cfg, model, target_dir,
                                               effective_seed)
                   for i, task in enumerate(cfg["tasks"])]
    except ConfigError as exc:
        print(f"riskctl: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RiskLibError as exc:
        print(f"riskctl: numerical error: {exc}", file=sys.stderr)
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
        except (ConfigError, RiskLibError, ValueError) as exc:
            print(f"riskctl: config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print("config ok")
        return EXIT_OK
    return run_config(args.config, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
