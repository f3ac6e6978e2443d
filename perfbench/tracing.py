"""Outside-in tracing of the horizonrisk layers for the benchmark's traced run.

``Tracer.install`` replaces the public entry points of each layer with
wrappers: module functions in every ``horizonrisk`` namespace (and dict) that
holds them, and class-level methods such as ``UtilityFn.__call__``.
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Each wrapped call is a frame on a stack.  A layer's self time is the time
its frames cover minus the time their child frames cover.  Calls of the
coarse entry points are also kept as spans ``(name, start, end, parent,
job)``; high-frequency leaf calls (one-step expectations, q-exponentials,
utility, aggregator and driver evaluations) are aggregated into counts and
self time only, so the trace stays small.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

import horizonrisk as hr
from horizonrisk import probspace

LAYERS = ("probspace", "qcalculus", "measures", "bsde", "shortfall",
          "duality", "axioms", "cli")

# (module, function, record span)
_FUNCTIONS = [
    ("qcalculus", "exp_q", False), ("qcalculus", "exp_q_extended", False),
    ("qcalculus", "ln_q", False),
    ("measures", "entropic", True), ("measures", "expected_loss", True),
    ("measures", "h_entropic", True), ("measures", "q_entropic_losses", True),
    ("measures", "hq_entropic_losses", True),
    ("measures", "certainty_equivalent", True),
    ("bsde", "solve_bsde", True), ("bsde", "g_risk_measure", True),
    ("bsde", "solve_family", True), ("bsde", "quadratic_transform_solve", True),
    ("bsde", "restriction_check", True), ("bsde", "longevity_girsanov", True),
    ("shortfall", "static_shortfall", True), ("shortfall", "dynamic_shortfall", True),
    ("shortfall", "h_var", True), ("shortfall", "acceptance_member", True),
    ("duality", "c_min", True), ("duality", "c_min_bruteforce", True),
    ("duality", "risk_map_R", True), ("duality", "dual_value", True),
    ("duality", "rho_bar", True),
    ("axioms", "check_cash_subadditive", True), ("axioms", "check_cash_additive", True),
    ("axioms", "check_monotone", True), ("axioms", "check_convex", True),
    ("axioms", "check_quasi_convex", True), ("axioms", "check_normalized", True),
    ("axioms", "check_restriction", True), ("axioms", "check_h_longevity", True),
    ("cli", "run_config", True), ("cli", "load_config", True),
    ("cli", "validate_config", True),
]

# (class, method, layer, record span)
_METHODS = [
    (probspace.FiltrationModel, "cond_matrix", "probspace", True),
    (probspace.FiltrationModel, "cond_expectation", "probspace", False),
    (probspace.BrownianLattice, "step_expectation", "probspace", False),
    (probspace.ScenarioTree, "step_expectation", "probspace", False),
    (probspace.BrownianLattice, "step_z", "probspace", False),
    (probspace.BrownianLattice, "probs", "probspace", False),
    (probspace.ScenarioTree, "probs", "probspace", False),
    (probspace.BrownianLattice, "tilted", "probspace", True),
    (hr.UtilityFn, "__call__", "measures", False),
    (hr.AggregatorFn, "__call__", "shortfall", False),
    (hr.LinearDriver, "__call__", "bsde", False),
    (hr.QuadraticQDriver, "__call__", "bsde", False),
    (hr.GenericLipschitzDriver, "__call__", "bsde", False),
]

_CLOSED_FORMS = {"entropic", "expected_loss", "h_entropic", "q_entropic_losses",
                 "hq_entropic_losses", "certainty_equivalent"}
_BISECTION_SPANS = {"shortfall.static_shortfall", "shortfall.dynamic_shortfall"}


def _triples(model) -> int:
    """Number of (t, u, v) grid triples with t <= u < v that the time-sweep
    checkers visit."""
    n = len(model.times) - 1
    return sum((j + 1) * (n - j) for j in range(n))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Counts, per-layer self time and spans of one traced run."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.job: int | None = None
        self._stack: list[list] = []
        self._restore: list[tuple[Any, Any, Any]] = []

    # -- recording -----------------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def count_rho(self, rho: Callable) -> Callable:
        """Count the calls of a rho callable handed to an axiom checker."""

        def counted(*args, **kwargs):
            self.counts["axioms.rho_calls"] += 1
            return rho(*args, **kwargs)

        return self._wrap(counted, "bench.rho", "bench", False, None)

    def span(self, name: str, layer: str, fn: Callable, *args):
        """Run fn(*args) as a recorded span (used for the job frames)."""
        return self._wrap(fn, name, layer, True, None)(*args)

    def _wrap(self, fn: Callable, name: str, layer: str, record: bool,
              hook: Callable | None) -> Callable:
        stack, spans, self_time, counts = (self._stack, self.spans,
                                           self.self_time, self.counts)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[3] if parent else -1
            span_id = len(spans) if record else parent_id
            if record:
                spans.append(None)        # reserve the id; filled on exit
            frame = [name, 0.0, clock(), span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                seen = exc.__dict__.setdefault("_perfbench_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    counts[layer + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self_time[layer] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if record:
                    spans[span_id] = (name, frame[2], end, parent_id, self.job)
            if hook is not None:
                hook(args, kwargs, result, duration, parent)
            return result

        return wrapper

    # -- per-boundary counters -----------------------------------------------
    def _hook(self, module: str, name: str) -> Callable | None:
        c = self.counts
        if module == "qcalculus":
            def hook(args, kwargs, result, duration, parent):
                c["qcalculus.calls"] += 1
                c["qcalculus.elems"] += np.size(_arg(args, kwargs, 0, "x"))
            return hook
        if name in _CLOSED_FORMS:
            return self._incr("measures.closed_form.calls")
        if name == "solve_bsde":
            def hook(args, kwargs, result, duration, parent):
                c["bsde.solves"] += 1
                c["bsde.steps"] += _arg(args, kwargs, 2, "terminal").depth
            return hook
        if module == "shortfall":
            def hook(args, kwargs, result, duration, parent):
                c["shortfall.calls"] += 1
                if name == "static_shortfall":
                    c["shortfall.nodes"] += 1
                    c["shortfall.sentinels"] += isinstance(result, hr.RiskSentinel)
                elif name == "dynamic_shortfall":
                    c["shortfall.nodes"] += len(result.values)
                    c["shortfall.sentinels"] += int(np.sum(~np.isfinite(result.values)))
            return hook
        if name in ("c_min", "risk_map_R", "dual_value"):
            def hook(args, kwargs, result, duration, parent):
                c[f"duality.{name}.calls"] += 1
                if name == "dual_value":
                    c["duality.measures"] += len(_arg(args, kwargs, 2, "grid"))
                    c["duality.sentinels"] += int(np.sum(~np.isfinite(result.r_values)))
                else:
                    c["duality.measures"] += 1
                    c["duality.sentinels"] += isinstance(result, hr.RiskSentinel)
            return hook
        if module == "axioms":
            def hook(args, kwargs, result, duration, parent):
                c["axioms.checks"] += 1
                if name in ("check_restriction", "check_h_longevity"):
                    c["axioms.triples"] += _triples(_arg(args, kwargs, 1, "model"))
            return hook
        if name == "run_config":
            def hook(args, kwargs, result, duration, parent):
                c["cli.runs"] += 1
                c["cli.nonzero_exits"] += result != 0
            return hook
        if name == "load_config":
            def hook(args, kwargs, result, duration, parent):
                c["cli.validate_s"] += duration
            return hook
        return None

    def _method_hook(self, cls, name: str, layer: str) -> Callable | None:
        c = self.counts
        if cls is hr.UtilityFn:
            return self._utility_hook
        if name == "__call__" and layer == "bsde":
            return self._incr("bsde.driver.calls")
        if name == "cond_matrix":
            def hook(args, kwargs, result, duration, parent):
                c["probspace.cond_matrix.calls"] += 1
                c["probspace.cond_matrix.cells"] += result.size
            return hook
        if name == "step_expectation":
            return self._incr("probspace.step_expectation.calls")
        return None

    def _utility_hook(self, args, kwargs, result, duration, parent) -> None:
        # attributed to the nearest enclosing frame: a bisection of the
        # shortfall layer or an inner search of the duality layer
        c = self.counts
        c["measures.utility.calls"] += 1
        if parent is None:
            return
        if parent[0] in _BISECTION_SPANS:
            c["shortfall.probes"] += 1
        elif parent[0].startswith("duality."):
            c["duality.inner_evals"] += 1

    def _incr(self, counter: str) -> Callable:
        counts = self.counts

        def hook(*_):
            counts[counter] += 1

        return hook

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "horizonrisk" or n.startswith("horizonrisk.")]
        for module, name, record in _FUNCTIONS:
            if f"horizonrisk.{module}" not in sys.modules:
                continue    # never imported, so never called (cli outside config-batch)
            original = getattr(sys.modules[f"horizonrisk.{module}"], name)
            wrapper = self._wrap(original, f"{module}.{name}", module, record,
                                 self._hook(module, name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._replace(ns, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._replace(value, key, wrapper)
        for cls, name, layer, record in _METHODS:
            self._replace(cls, name, self._wrap(
                cls.__dict__[name], f"{layer}.{cls.__name__}.{name}", layer, record,
                self._method_hook(cls, name, layer)))

    def _replace(self, owner, key, wrapper) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._restore.append((owner, key, vars(owner)[key]))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -----------------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        c, s = self.counts, self.self_time

        def per(num: str, base: str) -> float:
            return c[num] / c[base] if c[base] else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in ("probspace.cond_matrix.calls", "probspace.cond_matrix.cells",
                     "probspace.step_expectation.calls", "qcalculus.calls",
                     "qcalculus.elems", "measures.closed_form.calls",
                     "measures.utility.calls", "bsde.solves", "bsde.steps",
                     "bsde.driver.calls", "bsde.errors", "shortfall.calls",
                     "shortfall.nodes", "shortfall.probes", "shortfall.sentinels",
                     "shortfall.errors", "duality.c_min.calls",
                     "duality.risk_map_R.calls", "duality.dual_value.calls",
                     "duality.measures", "duality.inner_evals", "duality.sentinels",
                     "axioms.checks", "axioms.triples", "axioms.rho_calls",
                     "cli.runs", "cli.nonzero_exits"):
            out[name] = (int(c[name]), "count")
        out["bsde.driver_per_step"] = (per("bsde.driver.calls", "bsde.steps"), "calls/step")
        out["shortfall.probes_per_node"] = (per("shortfall.probes", "shortfall.nodes"),
                                            "probes/node")
        out["duality.inner_evals_per_measure"] = (
            per("duality.inner_evals", "duality.measures"), "evals/measure")
        out["cli.validate_s"] = (c["cli.validate_s"], "s")
        out["cli.artifact_bytes"] = (int(c["cli.artifact_bytes"]), "bytes")
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = (s[layer], "s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
