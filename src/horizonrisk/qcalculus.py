"""Tsallis generalized exponential and logarithm for q in (0, 1].

    exp_q(x) = [1 + (1-q) x]^(1/(1-q))   for x >= 1/(q-1), q in (0,1)
    ln_q(x)  = (x^(1-q) - 1) / (1-q)     for x >= 0,       q in (0,1)

with the classical exp/ln at q = 1 (dispatch, not a limit formula, to avoid
0/0).  The closed-domain boundary is kept exact: exp_q(1/(q-1)) = 0 and
ln_q(0) = 1/(q-1).  Both functions are strictly increasing and mutually
inverse on these domains, recovering exp/ln as q -> 1.  Values of q outside
(0, 1] are rejected: the q > 1 branch has a different domain geometry and is
out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["QParams", "exp_q", "ln_q", "exp_q_extended", "q_domain_floor"]


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise DomainError(
            f"q={q!r} unsupported: this library works with q in (0, 1]"
        )
    return q


def q_domain_floor(q: float) -> float:
    """Lower domain boundary 1/(q-1) of exp_q (is -inf at q = 1)."""
    q = _check_q(q)
    if q == 1.0:
        return -np.inf
    return 1.0 / (q - 1.0)


@dataclass(frozen=True)
class QParams:
    """Deformation parameter q and risk-attitude shift alpha_q (money units).

    Requires 0 < q <= 1 and alpha_q >= 1/(q-1) when q < 1 (a negative
    threshold), so that exp_q(w + alpha_q) is defined for every w >= 0.
    """

    q: float
    alpha_q: float = 0.0

    def __post_init__(self):
        _check_q(self.q)
        if not np.isfinite(self.alpha_q):
            raise DomainError("alpha_q must be finite")
        if self.q < 1.0 and self.alpha_q < q_domain_floor(self.q):
            raise DomainError(
                f"alpha_q={self.alpha_q} below the domain floor "
                f"{q_domain_floor(self.q)} for q={self.q}"
            )


def exp_q(x, q: float):
    """Generalized exponential; scalar in -> float, array in -> ndarray.

    Raises :class:`DomainError` when q < 1 and x < 1/(q-1): such an input
    signals an invalid risk-attitude / terminal-value combination.
    """
    q = _check_q(q)
    arr = np.asarray(x, dtype=float)
    if q == 1.0:
        out = np.exp(arr)
        return float(out) if arr.ndim == 0 else out
    floor = 1.0 / (q - 1.0)
    if (arr < floor).any():
        bad = np.min(arr)
        raise DomainError(
            f"exp_q argument {bad!r} below the domain boundary {floor!r} "
            f"for q={q}"
        )
    base = 1.0 + (1.0 - q) * arr
    # base >= 0 by the domain check; the boundary maps to 0 exactly.
    out = np.power(np.maximum(base, 0.0), 1.0 / (1.0 - q))
    return float(out) if arr.ndim == 0 else out


def exp_q_extended(x, q: float):
    """exp_q extended by 0 below its domain boundary.

    The extension is the monotone continuous closure used by aggregator
    functions whose cash argument ranges over all of R; the plain
    :func:`exp_q` keeps the strict domain contract.
    """
    q = _check_q(q)
    arr = np.asarray(x, dtype=float)
    if q == 1.0:
        out = np.exp(arr)
    else:
        base = np.maximum(1.0 + (1.0 - q) * arr, 0.0)
        out = np.power(base, 1.0 / (1.0 - q))
    return float(out) if arr.ndim == 0 else out


def ln_q(x, q: float):
    """Generalized logarithm, inverse of exp_q; ln_q(0) = 1/(q-1) exactly."""
    q = _check_q(q)
    arr = np.asarray(x, dtype=float)
    if q == 1.0:
        if (arr <= 0.0).any():
            raise DomainError("ln requires strictly positive arguments at q=1")
        out = np.log(arr)
        return float(out) if arr.ndim == 0 else out
    if (arr < 0.0).any():
        raise DomainError(f"ln_q requires x >= 0, got {np.min(arr)!r}")
    out = (np.power(arr, 1.0 - q) - 1.0) / (1.0 - q)
    return float(out) if arr.ndim == 0 else out
