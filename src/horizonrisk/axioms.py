"""Reusable axiom checkers producing reproducible reports with witnesses.

The checkers share one slack table.  Each axiom is one row of it: the case
generator that samples its cases, and the axiom's signed slack as a
function of the ``rho`` values of one case.  One reporter evaluates that
slack at every node of every case and reports the worst node, with a
witness when the axiom fails.  Conventions:

* ``rho`` is a callable RandomVariable -> RandomVariable (time binding done
  by the caller); the two time sweeps, restriction and h-longevity, take
  the family ``rho(X, t, u)`` instead;
* the first sampled positions are fixed: three constants and min(n, 3)
  one-atom spikes on a layer of n nodes, six once n >= 3; only the ones
  past them are nodewise i.i.d. uniform on [-3, 3], so the seed matters
  only when ``samples`` exceeds them (riskctl's time sweeps take
  max(2, samples // 3) positions, four at its default samples = 12);
* there are four kinds of case: cash shifts X + m with m from
  {0, 0.1, 1, 5} (constants, hence F_t-measurable at every t); upward
  bumps X + B with B i.i.d. uniform on [0, 2]; mixtures l X + (1-l) Y with
  l from {0.25, 0.5, 0.75}; and F_u-measurable positions at every grid
  triple t <= u < v.  Normalization is the degenerate one-case row rho(0);
* a sweep evaluates each distinct rho_tu(X) once: it does not depend on v,
  and the constant and spike positions, built once per depth, recur for
  every triple; a BSDE family runs one backward pass per (X, driver) within
  a sweep, with the horizons stacked as columns, which every (t, u) reads,
  and keeps nothing outside one (see
  :func:`horizonrisk.bsde.g_risk_measure`);
* slacks are signed so that >= 0 means the axiom held; the uniform pass
  tolerance is 1e-8, and reports carry the worst slack so borderline
  numerical failures are distinguishable from structural ones;
* checkers are deterministic given the seed: reports are reproducible
  bit for bit.

``CHECKERS`` maps each axiom name to its checker, and ``SWEEPS`` holds the
names of the checkers that sweep the time grid.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .bsde import _kept_passes
from .probspace import FiltrationModel, RandomVariable

__all__ = [
    "AxiomReport", "CHECKERS", "SWEEPS", "check_cash_subadditive",
    "check_cash_additive", "check_monotone", "check_convex",
    "check_quasi_convex", "check_normalized", "check_restriction",
    "check_h_longevity",
]

TOLERANCE = 1e-8
_CASH_SHIFTS = (0.0, 0.1, 1.0, 5.0)
_LAMBDAS = (0.25, 0.5, 0.75)

_Rho = Callable[[RandomVariable], RandomVariable]
_RhoFamily = Callable[[RandomVariable, float, float], RandomVariable]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check; a failed verdict always carries a witness
    whose re-evaluation reproduces the violation."""

    axiom: str
    passed: bool
    worst_slack: float
    samples: int
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _fixed_positions(model: FiltrationModel,
                     depth: int) -> Iterator[RandomVariable]:
    """Three constants, then up to three one-atom spikes."""
    n = model.num_nodes(depth)
    for c in (-2.0, 0.0, 1.5):
        yield model.constant(c, depth)
    spikes = min(n, 3)
    for j in range(spikes):
        spike = np.zeros(n)
        spike[j * (n - 1) // max(1, spikes - 1) if n > 1 else 0] = 3.0 * (-1) ** j
        yield RandomVariable(model, depth, spike)


def _sample_positions(model: FiltrationModel, depth: int, samples: int,
                      rng: np.random.Generator,
                      fixed: list[RandomVariable] | None = None
                      ) -> list[RandomVariable]:
    """The first ``samples`` fixed positions (built here unless given), then
    nodewise i.i.d. uniform draws on [-3, 3] up to ``samples``."""
    xs = list(islice(_fixed_positions(model, depth) if fixed is None
                     else fixed, samples))
    n = model.num_nodes(depth)
    return xs + [RandomVariable(model, depth, rng.uniform(-3.0, 3.0, size=n))
                 for _ in range(samples - len(xs))]


def _time_triples(model: FiltrationModel) -> list[tuple[float, float, float]]:
    ts = model.times
    return [
        (ts[i], ts[j], ts[k])
        for i in range(len(ts) - 1)
        for j in range(i, len(ts) - 1)
        for k in range(j + 1, len(ts))
    ]


# Case generators.  Each yields, for every sampled position, the list of its
# cases: the rho values the slack takes, and a witness without its node.

def _cash_shifts(rho, model, depth, samples, seed):
    """(rho(X), rho(X + m), m) for every cash shift m."""
    for X in _sample_positions(model, depth, samples,
                               np.random.default_rng(seed)):
        base = rho(X).values
        yield [((base, rho(X + m).values, m), {"x": X.values.tolist(), "m": m})
               for m in _CASH_SHIFTS]


def _bumps(rho, model, depth, samples, seed):
    """(rho(X), rho(Y)) for Y = X plus an upward bump drawn per position."""
    rng = np.random.default_rng(seed)
    for X in _sample_positions(model, depth, samples, rng):
        bump = rng.uniform(0.0, 2.0, size=model.num_nodes(depth))
        Y = X + RandomVariable(model, depth, bump)
        yield [((rho(X).values, rho(Y).values),
                {"x": X.values.tolist(), "y": Y.values.tolist()})]


def _mixtures(rho, model, depth, samples, seed):
    """(rho(X), rho(Y), rho(Z), w) for Z = w X + (1-w) Y and every weight w."""
    xs = _sample_positions(model, depth, samples, np.random.default_rng(seed))
    ys = _sample_positions(model, depth, samples,
                           np.random.default_rng(seed + 1))
    for X, Y in zip(xs, ys):
        rx, ry = rho(X).values, rho(Y).values
        yield [((rx, ry, rho(w * X + (1.0 - w) * Y).values, w),
                {"x": X.values.tolist(), "y": Y.values.tolist(), "lambda": w})
               for w in _LAMBDAS]


def _zero(rho, model, depth, samples, seed):
    """The single case rho(0)."""
    value = rho(model.constant(0.0, depth)).values
    yield [((value,), {"rho_zero": value.tolist()})]


def _grid_triples(rho_family, model, depth, samples, seed):
    """(rho_tv(X), rho_tu(X)) for F_u-measurable X at every grid triple,
    with rho_tu(X) kept per (X, t, u) and the fixed positions built once per
    depth, so the same objects recur from triple to triple."""
    rng = np.random.default_rng(seed)
    rho_tu, fixed = {}, {}
    for t, u, v in _time_triples(model):
        k = model.depth_of(u)
        if k not in fixed:
            fixed[k] = list(_fixed_positions(model, k))
        for X in _sample_positions(model, k, samples, rng, fixed[k]):
            rv, key = rho_family(X, t, v).values, (X.values.tobytes(), t, u)
            if key not in rho_tu:
                rho_tu[key] = rho_family(X, t, u).values
            yield [((rv, rho_tu[key]),
                    {"x": X.values.tolist(), "t": t, "u": u, "v": v})]


# The slack table: axiom -> (case generator, signed slack of one case).
_SLACKS = {
    "cash_additive": (_cash_shifts, lambda r, rm, m: -np.abs(rm - r + m)),
    "cash_subadditive": (_cash_shifts, lambda r, rm, m: rm - r + m),
    "monotone": (_bumps, lambda rx, ry: rx - ry),
    "convex": (_mixtures, lambda rx, ry, rz, w: w * rx + (1.0 - w) * ry - rz),
    "quasi_convex": (_mixtures, lambda rx, ry, rz, w: np.maximum(rx, ry) - rz),
    "normalized": (_zero, lambda r0: -np.abs(r0)),
    "restriction": (_grid_triples, lambda rv, ru: -np.abs(rv - ru)),
    "h_longevity": (_grid_triples, lambda rv, ru: rv - ru),
}


def _report(axiom: str, rho, model: FiltrationModel, depth: int | None,
            samples: int, seed: int) -> AxiomReport:
    """Run the axiom's row of the slack table and report its worst node
    (the first case attaining it) and the number of sampled positions;
    the BSDE passes run during a time sweep are kept until it returns."""
    cases, slack = _SLACKS[axiom]
    depth = model.terminal_depth if depth is None else depth
    rows, positions = [], 0
    with _kept_passes() if cases is _grid_triples else nullcontext():
        for position in cases(rho, model, depth, samples, seed):
            positions += 1
            for values, witness in position:
                per_node = slack(*values)
                node = int(np.argmin(per_node))
                rows.append((float(per_node[node]), {**witness, "node": node}))
    worst, witness = min(rows, key=lambda r: r[0])
    passed = worst >= -TOLERANCE
    return AxiomReport(axiom=axiom, passed=bool(passed), worst_slack=worst,
                       samples=positions, witness=None if passed else witness)


def check_cash_subadditive(rho: _Rho, model: FiltrationModel,
                           samples: int = 20, depth: int | None = None,
                           seed: int = 0) -> AxiomReport:
    """rho(X + m) >= rho(X) - m for cash amounts m >= 0."""
    return _report("cash_subadditive", rho, model, depth, samples, seed)


def check_cash_additive(rho: _Rho, model: FiltrationModel, samples: int = 20,
                        depth: int | None = None, seed: int = 0) -> AxiomReport:
    """rho(X + m) = rho(X) - m (translation invariance), checked as
    -|rho(X+m) - rho(X) + m| >= -TOLERANCE."""
    return _report("cash_additive", rho, model, depth, samples, seed)


def check_monotone(rho: _Rho, model: FiltrationModel, samples: int = 20,
                   depth: int | None = None, seed: int = 0) -> AxiomReport:
    """X <= Y implies rho(X) >= rho(Y) (losses shrink as payoffs grow)."""
    return _report("monotone", rho, model, depth, samples, seed)


def check_convex(rho: _Rho, model: FiltrationModel, samples: int = 20,
                 depth: int | None = None, seed: int = 0) -> AxiomReport:
    """rho(l X + (1-l) Y) <= l rho(X) + (1-l) rho(Y) on sampled mixtures."""
    return _report("convex", rho, model, depth, samples, seed)


def check_quasi_convex(rho: _Rho, model: FiltrationModel, samples: int = 20,
                       depth: int | None = None, seed: int = 0) -> AxiomReport:
    """rho(l X + (1-l) Y) <= max(rho(X), rho(Y)) on sampled mixtures."""
    return _report("quasi_convex", rho, model, depth, samples, seed)


def check_normalized(rho: _Rho, model: FiltrationModel,
                     depth: int | None = None, *, samples: int = 1,
                     seed: int = 0) -> AxiomReport:
    """rho(0) = 0.

    rho(0) is one deterministic case, so ``samples`` and ``seed`` are unused;
    they are accepted so that every point checker takes the same keywords.
    """
    return _report("normalized", rho, model, depth, samples, seed)


def check_restriction(rho_family: _RhoFamily, model: FiltrationModel,
                      samples: int = 6, seed: int = 0) -> AxiomReport:
    """rho_tu(X) = rho_tv(X) for v >= u and F_u-measurable X."""
    return _report("restriction", rho_family, model, None, samples, seed)


def check_h_longevity(rho_family: _RhoFamily, model: FiltrationModel,
                      samples: int = 6, seed: int = 0) -> AxiomReport:
    """gamma(t, u, v, X) = rho_tv(X) - rho_tu(X) >= 0 for t <= u <= v."""
    return _report("h_longevity", rho_family, model, None, samples, seed)


CHECKERS = {name: globals()[f"check_{name}"] for name in _SLACKS}
SWEEPS = frozenset(name for name, (cases, _) in _SLACKS.items()
                   if cases is _grid_triples)
