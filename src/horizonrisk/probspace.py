"""Finite filtered probability models: scenario trees, binomial lattices
and node-indexed random variables.

Two model families share one interface:

* :class:`ScenarioTree` -- a general finite tree with explicit nodes, one
  parent per node and positive branch probabilities; ``to_json_dict`` and
  ``from_json_dict`` map it to and from its JSON schema.  Intended for
  small hand-built or randomly generated examples (depth <= 6).
* :class:`BrownianLattice` -- a recombining binomial lattice discretizing a
  one-dimensional Brownian motion, stored compactly (k+1 states at depth k)
  so that fine grids (N = 64 and beyond) stay cheap.

Both supply the adjoint one-step hooks ``step_expectation`` (backward) and
``step_forward`` (forward), from which :class:`FiltrationModel` derives the
rest, the conditional law ``cond_matrix`` included.  A tree pushes the
identity forward; the lattice's up probabilities depend on the step only, so
it pushes one node's row and shifts it along the diagonal, O(N^2) in place
of O(N^3), with every entry bitwise the same.

A :class:`RandomVariable` holds one value per node at a fixed depth and is
F_k-measurable by construction.  It is the one carrier of values on a model:
an adapted process, such as a BSDE solution, is one random variable per
depth.

While an axiom checker runs, it holds one stacking scope (:func:`_stacking`)
in which it registers positions as a group (:func:`_stack`): a point check
its distinct positions, a time sweep each triple's positions in place of
the last triple's.  A solver reads X's result for a key of its own at a
depth kt (:func:`_shared`) under one rule: the first member of X's group,
of X's model and depth, that has no result for the key down to kt runs one
stacked solve for every such member, and any other call solves X alone.
A stacked solve that raises dissolves the group for that key: each member
then solves alone at its own call, so errors, their messages and the call
that raises them are those of one solve per position.  Results are kept
per position, weakly, until the check returns, and a result solved down to
kt serves every later call at kt or above.  The nodewise shortfall keys on
(spec, t, u); the BSDE keys on the driver and solves a pass over the
horizons depth(X)..N.  Each value is bitwise that of the position's own
solve.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DomainError, TimeGridError, TreeStructureError

_PROB_TOL = 1e-12


def _off_step(depth: int, n_steps: int) -> TimeGridError:
    """The error of a one-step hook called at a depth outside [0, n_steps).
    The hooks are the per-step hot paths, so each checks its depth inline
    with one comparison and builds the error here."""
    return TimeGridError(f"step depth {depth} outside [0, {n_steps})")


def _check_times(times: Sequence[float]) -> tuple[float, ...]:
    ts = tuple(float(t) for t in times)
    if not all(map(math.isfinite, ts)):
        raise TimeGridError(f"time grid must be finite: {ts}")
    if len(ts) < 2:
        raise TimeGridError("time grid needs at least two points")
    if abs(ts[0]) > 0.0:
        raise TimeGridError(f"time grid must start at 0, got {ts[0]}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise TimeGridError(f"time grid must be strictly increasing: {ts}")
    return ts


class FiltrationModel:
    """Common interface of finite filtered models.

    Subclasses provide the node layout per depth and two adjoint one-step
    hooks, ``step_expectation`` (E[. | F_k] of a depth-(k+1) layer) and
    ``step_forward`` (depth-k probability rows pushed to depth k+1).
    Iterated conditioning composes ``step_expectation`` backward; the
    conditional law ``cond_matrix`` composes ``step_forward`` from the
    identity, and ``probs`` is its row from the root.  ``cond_matrix`` checks
    the depths and hands the build to ``_build_cond_matrix``, which a model
    with a cheaper law overrides: the lattice pushes a single row and writes
    it, shifted by i, into row i.
    """

    times: tuple[float, ...]
    n_steps: int  # len(times) - 1, set with the times

    @property
    def horizon(self) -> float:
        return self.times[-1]

    @property
    def terminal_depth(self) -> int:
        return self.n_steps

    def depth_of(self, t: float) -> int:
        """Map a grid time to its depth index: the first within 1e-9.  The
        model's own grid times are looked up, each mapped once by the
        bisection below, which any other t runs."""
        try:
            k = self._grid_depths.get(t)
        except TypeError:  # an unhashable t, such as a 0-d array
            k = None
        return self._bisect_depth(t) if k is None else k

    @cached_property
    def _grid_depths(self) -> dict[float, int]:
        return {s: self._bisect_depth(s) for s in self.times}

    def _bisect_depth(self, t: float) -> int:
        lo = bisect_left(self.times, t - 2e-9)
        for k in range(lo, bisect_right(self.times, t + 2e-9, lo)):
            if abs(self.times[k] - t) <= 1e-9:
                return k
        raise TimeGridError(f"time {t} is not on the grid {self.times}")

    def horizon_depths(self, X: "RandomVariable", t: float,
                       u: float | None = None) -> tuple[int, int]:
        """Depths (kt, ku) of rho_tu(X) under the one horizon contract: X on
        this model, t and u grid times, depth(t) <= depth(X) <= depth(u); u
        defaults to the time of depth(X)."""
        if X.model is not self:
            raise TreeStructureError("the position lives on another model")
        kt = self.depth_of(t)
        ku = X.depth if u is None else self.depth_of(u)
        if not kt <= X.depth <= ku:
            raise TimeGridError(f"need depth(t) <= depth(X) <= depth(u), got "
                                f"{kt}, {X.depth}, {ku} for t={t}, u={u}")
        return kt, ku

    def dt(self, k: int) -> float:
        return self.times[k + 1] - self.times[k]

    # -- layout hooks -----------------------------------------------------
    def num_nodes(self, depth: int) -> int:
        """Node count at ``depth``; TimeGridError outside the grid's depths."""
        raise NotImplementedError

    def probs(self, depth: int) -> np.ndarray:
        """Cumulative probabilities of the depth-k nodes (sums to 1)."""
        raise NotImplementedError

    def step_expectation(self, values: np.ndarray, depth: int) -> np.ndarray:
        """E[. | F_depth] applied to a depth+1 value layer."""
        raise NotImplementedError

    def step_forward(self, rows: np.ndarray, depth: int) -> np.ndarray:
        """Push distributions over the depth nodes (last axis) one step to
        the depth+1 nodes; the adjoint of :meth:`step_expectation`."""
        raise NotImplementedError

    # -- derived operations ----------------------------------------------
    def _check_depth(self, depth: int) -> None:
        if not 0 <= depth <= self.terminal_depth:
            raise TimeGridError(
                f"depth {depth} outside [0, {self.terminal_depth}]"
            )

    def cond_expectation(self, values: np.ndarray, from_depth: int,
                         to_depth: int) -> np.ndarray:
        self._check_depth(from_depth)
        self._check_depth(to_depth)
        if to_depth > from_depth:
            raise TimeGridError(
                f"target depth {to_depth} exceeds source depth {from_depth}"
            )
        out = np.asarray(values, dtype=float)
        for k in range(from_depth - 1, to_depth - 1, -1):
            out = self.step_expectation(out, k)
        return out

    def cond_matrix(self, from_depth: int, to_depth: int) -> np.ndarray:
        """Conditional probabilities P(node j at to_depth | node i at from_depth),
        shape (num_nodes(from_depth), num_nodes(to_depth)): the identity on
        the from_depth nodes pushed forward step by step."""
        self._check_depth(from_depth)
        self._check_depth(to_depth)
        if to_depth < from_depth:
            raise TimeGridError("cond_matrix requires from_depth <= to_depth")
        return self._build_cond_matrix(from_depth, to_depth)

    def _build_cond_matrix(self, from_depth: int, to_depth: int) -> np.ndarray:
        """The law of :meth:`cond_matrix` on checked depths; models whose law
        has more structure override this, never ``cond_matrix`` itself."""
        rows = np.eye(self.num_nodes(from_depth))
        for k in range(from_depth, to_depth):
            rows = self.step_forward(rows, k)
        return rows

    def constant(self, value: float, depth: int | None = None) -> RandomVariable:
        if depth is None:
            depth = self.terminal_depth
        return RandomVariable(
            self, depth, np.full(self.num_nodes(depth), float(value))
        )


class ScenarioTree(FiltrationModel):
    """General finite tree model.

    Nodes are given as ``(id, depth, parent, p)`` where ``p`` is the
    conditional branch probability.  Ids must be ``0..n-1`` with the root at
    id 0, depth 0 and ``p = 1``.  At every non-terminal node the children's
    branch probabilities are strictly positive and sum to one (tolerance
    1e-12); every non-terminal node has at least one child and all leaves sit
    at the final depth.  Instances are immutable after construction.

    The layout is stored once, per depth: the depth-k nodes sit in id order
    in slots 0..n_k-1, ``_up[k]`` holds each one's parent slot at depth k-1
    (the root is its own parent) and ``_p[k]`` its branch probability.
    Every tree operation reads these two arrays; the raw node arrays are kept
    for :meth:`to_json_dict` only.
    """

    def __init__(self, times: Sequence[float],
                 nodes: Iterable[tuple[int, int, int | None, float]]):
        self.times = _check_times(times)
        self.n_steps = len(self.times) - 1
        entries = sorted(nodes, key=lambda e: e[0])
        n = len(entries)
        if not entries or [e[0] for e in entries] != list(range(n)):
            raise TreeStructureError("node ids must be exactly 0..n-1")
        depth = np.array([e[1] for e in entries], dtype=int)
        parent = np.array(
            [-1 if e[2] is None else int(e[2]) for e in entries], dtype=int
        )
        p = np.array([e[3] for e in entries], dtype=float)
        if depth[0] != 0 or parent[0] != -1:
            raise TreeStructureError("node 0 must be the root (depth 0, no parent)")
        if np.count_nonzero(parent < 0) != 1:
            raise TreeStructureError("exactly one root node allowed")
        # Each rule names the first offending node in id order.
        orphan = parent >= n
        up = np.where(orphan, 0, parent)
        up[0] = 0  # the root is its own parent
        bad = orphan | (depth != depth[up] + 1)
        bad[0] = False
        if bad.any():
            i = int(np.argmax(bad))
            if orphan[i]:
                raise TreeStructureError(f"node {i} has invalid parent {parent[i]}")
            raise TreeStructureError(f"node {i} depth {depth[i]} != parent depth + 1")
        last = self.terminal_depth
        kids = np.bincount(parent[1:], minlength=n)
        bad = (depth > last) | ((depth < last) & (kids == 0))
        if bad.any():
            i = int(np.argmax(bad))
            if depth[i] > last:
                raise TreeStructureError(f"node {i} deeper than the time grid allows")
            raise TreeStructureError(
                f"non-terminal node {i} (depth {depth[i]}) has no children"
            )
        if not abs(p[0] - 1.0) <= _PROB_TOL:
            raise TreeStructureError("root probability must be 1")
        not_positive = np.bincount(parent[1:], weights=~(p[1:] > 0.0), minlength=n)
        off_one = ~(np.abs(np.bincount(parent[1:], weights=p[1:], minlength=n)
                           - 1.0) <= _PROB_TOL)
        bad = (not_positive > 0) | ((kids > 0) & off_one)
        if bad.any():
            i = int(np.argmax(bad))
            if not_positive[i]:
                raise TreeStructureError(
                    f"node {i} has a child branch probability that is not positive"
                )
            total = p[1:][parent[1:] == i].sum()
            raise TreeStructureError(
                f"children of node {i} have probabilities summing to {total!r}, not 1"
            )
        # slots: ids grouped by depth, in id order within each depth
        order = np.argsort(depth, kind="stable")
        start = np.searchsorted(depth[order], np.arange(last + 2))
        slot = np.empty(n, dtype=int)
        slot[order] = np.arange(n) - start[depth[order]]
        layers = [order[a:b] for a, b in zip(start[:-1], start[1:])]
        self._up = [slot[up[ids]] for ids in layers]
        self._p = [p[ids] for ids in layers]
        self._nodes = (depth, parent, p)

    # -- FiltrationModel hooks ---------------------------------------------
    def num_nodes(self, depth: int) -> int:
        self._check_depth(depth)
        return self._p[depth].size

    def probs(self, depth: int) -> np.ndarray:
        return self.cond_matrix(0, depth)[0]

    def step_expectation(self, values: np.ndarray, depth: int) -> np.ndarray:
        if not 0 <= depth < self.n_steps:
            raise _off_step(depth, self.n_steps)
        # bincount adds each parent's children from 0.0 in slot order
        weighted = self._p[depth + 1] * np.asarray(values, dtype=float)
        return np.bincount(self._up[depth + 1], weights=weighted,
                           minlength=self._p[depth].size)

    def step_forward(self, rows: np.ndarray, depth: int) -> np.ndarray:
        if not 0 <= depth < self.n_steps:
            raise _off_step(depth, self.n_steps)
        return rows[..., self._up[depth + 1]] * self._p[depth + 1]

    # -- tree-specific operations -------------------------------------------
    def _lift(self, values: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
        """Extend a checked F_k layer along paths to a deeper depth: each node
        inherits its ancestor's value.  Only trees support lifting (lattice
        states recombine)."""
        out = np.asarray(values, dtype=float)
        for k in range(from_depth + 1, to_depth + 1):
            out = out[self._up[k]]
        return out

    def to_json_dict(self) -> dict:
        depth, parent, p = (a.tolist() for a in self._nodes)
        nodes = [{"id": i, "depth": d, "parent": None if a < 0 else a, "p": b}
                 for i, (d, a, b) in enumerate(zip(depth, parent, p))]
        return {"times": list(self.times), "nodes": nodes}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioTree":
        nodes = [
            (nd["id"], nd["depth"], nd["parent"], nd["p"])
            for nd in data["nodes"]
        ]
        return cls(data["times"], nodes)

    @classmethod
    def terminal_atoms(cls, probabilities: Sequence[float]) -> "ScenarioTree":
        """One-period tree on the times (0, 1) whose terminal atoms carry the
        given probabilities."""
        nodes = [(0, 0, None, 1.0)]
        for j, p in enumerate(probabilities):
            nodes.append((j + 1, 1, 0, float(p)))
        return cls((0.0, 1.0), nodes)

    @classmethod
    def random(cls, rng: np.random.Generator, depth: int = 3,
               max_branching: int = 3, times: Sequence[float] | None = None
               ) -> "ScenarioTree":
        """Random tree with branching factors in {2..max_branching} and
        Dirichlet-ish strictly positive branch probabilities."""
        if times is None:
            times = [k / depth for k in range(depth + 1)]
        nodes: list[tuple[int, int, int | None, float]] = [(0, 0, None, 1.0)]
        frontier = [0]
        next_id = 1
        for k in range(depth):
            new_frontier = []
            for parent in frontier:
                width = int(rng.integers(2, max_branching + 1))
                raw = 0.2 + rng.random(width)
                ps = raw / raw.sum()
                for b in range(width):
                    nodes.append((next_id, k + 1, parent, float(ps[b])))
                    new_frontier.append(next_id)
                    next_id += 1
            frontier = new_frontier
        return cls(times, nodes)


class BrownianLattice(FiltrationModel):
    """Recombining binomial discretization of a 1-d Brownian motion.

    At depth k the state i in {0..k} counts up-moves; the Brownian value is
    (2i - k) * sqrt(dt) and each step moves +-sqrt(dt) with probability 1/2,
    so per-step increments have conditional mean 0 and variance dt exactly.
    ``up_probs`` other than 1/2 arise from deterministic measure tilts
    (discrete Girsanov) and keep the lattice recombining.
    """

    def __init__(self, n_steps: int, horizon: float = 1.0,
                 up_probs: np.ndarray | None = None):
        if n_steps < 1:
            raise TimeGridError("lattice needs at least one step")
        if not 0.0 < horizon < math.inf:
            raise TimeGridError(f"horizon must be positive and finite, got {horizon}")
        self.times = tuple(horizon * k / n_steps for k in range(n_steps + 1))
        self.n_steps = n_steps
        self._sqdt = math.sqrt(horizon / n_steps)
        if up_probs is None:
            self._up = np.full(n_steps, 0.5)
        else:
            self._up = np.asarray(up_probs, dtype=float)
            if self._up.shape != (n_steps,):
                raise TreeStructureError("up_probs must have one entry per step")
            if not np.all((self._up > 0.0) & (self._up < 1.0)):
                raise TreeStructureError("up probabilities must lie in (0, 1)")

    def num_nodes(self, depth: int) -> int:
        self._check_depth(depth)
        return depth + 1

    def probs(self, depth: int) -> np.ndarray:
        return self.cond_matrix(0, depth)[0]

    def step_expectation(self, values: np.ndarray, depth: int) -> np.ndarray:
        if not 0 <= depth < self.n_steps:
            raise _off_step(depth, self.n_steps)
        values = np.asarray(values, dtype=float)
        p = self._up[depth]
        return p * values[1:] + (1.0 - p) * values[:-1]

    def step_forward(self, rows: np.ndarray, depth: int) -> np.ndarray:
        if not 0 <= depth < self.n_steps:
            raise _off_step(depth, self.n_steps)
        p = self._up[depth]
        out = np.empty(rows.shape[:-1] + (rows.shape[-1] + 1,))
        np.multiply(rows, 1.0 - p, out=out[..., :-1])
        out[..., -1] = 0.0
        out[..., 1:] += p * rows
        return out

    def _build_cond_matrix(self, from_depth: int, to_depth: int) -> np.ndarray:
        # The up probabilities depend on the step only, so every node's law is
        # one row of d - k + 1 binomial weights, shifted by the node's index.
        # Each entry takes the same floating-point steps as the base build.
        row = np.ones(1)
        for k in range(from_depth, to_depth):
            row = self.step_forward(row, k)
        out = np.zeros((from_depth + 1, to_depth + 1))
        for i in range(from_depth + 1):
            out[i, i:i + row.size] = row
        return out

    def step_z(self, values: np.ndarray, depth: int) -> np.ndarray:
        """E[Y_{k+1} dB_k | F_k] / dt -- the exact discrete gradient."""
        if not 0 <= depth < self.n_steps:
            raise _off_step(depth, self.n_steps)
        values = np.asarray(values, dtype=float)
        p = self._up[depth]
        return (p * values[1:] - (1.0 - p) * values[:-1]) / self._sqdt

    def brownian(self, depth: int) -> np.ndarray:
        self._check_depth(depth)
        return (2.0 * np.arange(depth + 1) - depth) * self._sqdt

    def tilted(self, shift: Callable[[float], float]) -> "BrownianLattice":
        """Lattice under the equivalent measure with per-step density factor
        exp(shift(t_k) dB_k - shift(t_k)^2 dt / 2), each factor normalized to
        conditional mean one.  The Brownian geometry is unchanged; only the
        up probabilities move."""
        ups = np.empty(self.n_steps)
        for k in range(self.n_steps):
            x = float(shift(self.times[k])) * self._sqdt
            if abs(x) > 350.0:
                raise DomainError("measure tilt too large to normalize")
            ups[k] = math.exp(x) / (math.exp(x) + math.exp(-x))
        return BrownianLattice(self.n_steps, self.horizon, ups)


class RandomVariable:
    """F_k-measurable random variable: one value per depth-k node.

    Arithmetic requires operands on the same model; on trees, operands at
    different depths are lifted along paths to the deeper one.
    """

    __slots__ = ("model", "depth", "values", "__weakref__")

    def __init__(self, model: FiltrationModel, depth: int, values):
        n = model.num_nodes(depth)  # checks the depth
        vals = np.asarray(values, dtype=float)
        if vals.shape != (n,):
            raise TreeStructureError(
                f"expected {n} values at depth {depth}, got shape {vals.shape}"
            )
        if np.isnan(vals).any():
            raise DomainError(f"NaN value at depth {depth}")
        self.model = model
        self.depth = depth
        self.values = vals

    def _align(self, other: "RandomVariable") -> tuple[np.ndarray, np.ndarray, int]:
        if other.model is not self.model:
            raise TreeStructureError("operands live on different models")
        if other.depth == self.depth:
            return self.values, other.values, self.depth
        if not isinstance(self.model, ScenarioTree):
            raise TreeStructureError(
                "depth-mismatched arithmetic needs a ScenarioTree (lattice "
                "states do not determine earlier states)"
            )
        target = max(self.depth, other.depth)
        a = self.model._lift(self.values, self.depth, target)
        b = self.model._lift(other.values, other.depth, target)
        return a, b, target

    def _binary(self, other, op) -> "RandomVariable":
        if isinstance(other, RandomVariable):
            a, b, depth = self._align(other)
            return RandomVariable(self.model, depth, op(a, b))
        return RandomVariable(self.model, self.depth, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: np.subtract(b, a))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __neg__(self):
        return RandomVariable(self.model, self.depth, -self.values)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "RandomVariable":
        return RandomVariable(self.model, self.depth, fn(self.values))

    def neg_part(self) -> "RandomVariable":
        """max(-X, 0), the negative-part payoff transform used on losses."""
        return RandomVariable(self.model, self.depth, np.maximum(-self.values, 0.0))

    def condexp(self, depth: int) -> "RandomVariable":
        vals = self.model.cond_expectation(self.values, self.depth, depth)
        return RandomVariable(self.model, depth, vals)

    def expectation(self) -> float:
        return float(np.dot(self.model.probs(self.depth), self.values))

    def __repr__(self) -> str:
        return (f"RandomVariable(depth={self.depth}, "
                f"values={np.array2string(self.values, precision=6)})")


class _Scope(WeakKeyDictionary):
    """A stacking scope's results, position -> {key: (owner, depth,
    result)}, keyed weakly on the position, with the group registered
    last and the keys whose stacked solve raised for it, {key: owner}.  A
    key names its owner, a spec or a driver, by id, and each entry holds
    the owner, so no other object takes over its id."""

    def __init__(self):
        super().__init__()
        self.group, self.dissolved = (), {}


# The scope of the axiom check that runs, None outside one.
_SCOPE: ContextVar[_Scope | None] = ContextVar("_SCOPE", default=None)


@contextmanager
def _stacking():
    """Open a stacking scope until the block ends."""
    token = _SCOPE.set(_Scope())
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _stack(positions: Iterable[RandomVariable]) -> None:
    """Register ``positions`` as the group of the open scope, in place of
    the group before; nothing outside a scope."""
    scope = _SCOPE.get()
    if scope is not None:
        scope.group, scope.dissolved = tuple(positions), {}


def _shared(X: RandomVariable, owner: Any, key: Hashable, kt: int,
            solve: Callable[[list[RandomVariable]], Sequence]) -> Any:
    """X's result for ``key``, which names ``owner`` by id, under the rule
    of the open stacking scope (see the module docstring), None outside
    one.  ``solve(xs)`` gives one result per position of xs, all of one
    model and depth, down to depth kt; a kept result serves every later
    call at kt or above, and every result solved here is kept."""
    scope = _SCOPE.get()
    if scope is None:
        return None
    held = scope.get(X, {}).get(key)
    if held is not None and held[1] <= kt:
        return held[2]

    def lacks(Y):
        held = scope.get(Y, {}).get(key)
        return held is None or held[1] > kt

    xs = [X]
    if any(Y is X for Y in scope.group) and key not in scope.dissolved:
        lacking = (Y for Y in scope.group if Y.model is X.model
                   and Y.depth == X.depth and lacks(Y))
        if next(lacking) is X:
            xs += lacking
    if len(xs) > 1:
        try:
            solved = solve(xs)
        except Exception:  # the error is X's own solve's, or none
            scope.dissolved[key], xs = owner, [X]
    if len(xs) == 1:  # raises, if at all, outside the handler above
        solved = solve(xs)
    for Y, value in zip(xs, solved):
        scope.setdefault(Y, {})[key] = (owner, kt, value)
    return solved[0]
