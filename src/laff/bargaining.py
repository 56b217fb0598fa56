"""Enforceable bargaining solutions over pure-action pairs.

A candidate outcome is a convex combination (weight ``alpha`` on ``xA``) of at
most two joint actions.  It is epsilon-enforceable relative to a memory
length K when K rounds of punishment at the opponent's security value
outweigh the opponent's one-shot deviation profit by at least epsilon:

    K * u2 >= K * muS2 + r(X) + eps

The egalitarian solution maximizes min_i(u_i - muS_i) over the enforceable
set; the bully solution maximizes u1 alone.  This module holds only these
solutions; LAFF's switch slack, which reads them, lives in `controller`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .games import BimatrixGame, security_value

EBS = "EBS"
BULLY = "Bully"
SECURITY_FALLBACK = "SecurityFallback"

_TOL = 1e-9


class JointAction(NamedTuple):
    a1: int
    a2: int


@dataclass(frozen=True)
class EnforceParams:
    """Memory length and enforceability slack."""

    K: int
    eps: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("memory length K must be >= 1")
        if not (self.eps > 0 and math.isfinite(self.eps)):  # NaN fails too
            raise ValueError(f"enforceability slack eps must be finite and > 0, "
                             f"got {self.eps}")


@dataclass(frozen=True)
class PairSolution:
    """An enforceable outcome: two joint actions mixed with weight alpha on xA."""

    xA: Optional[JointAction]
    xB: Optional[JointAction]
    alpha: float
    u1: float
    u2: float
    deviation_profit: Optional[float]
    kind: str

    @property
    def is_fallback(self) -> bool:
        return self.kind == SECURITY_FALLBACK


def deviation_profit(game: BimatrixGame, X) -> float:
    """Player 2's best one-shot gain from deviating anywhere in X.

    r(X) = max over (x1, x2) in X of [max_{j != x2} R2(x1, j) - R2(x1, x2)];
    a row with a single column contributes -inf.
    """
    X = list(X)
    if not X:
        raise ValueError("deviation profit of an empty action set is undefined")
    best = -math.inf
    for (x1, x2) in X:
        row = game.R2[x1]
        alt = max((row[j] for j in range(game.n2) if j != x2), default=-math.inf)
        best = max(best, alt - row[x2])
    return best


def _solve(game: BimatrixGame, ep: EnforceParams, selfish: bool) -> PairSolution:
    muS1, _ = security_value(game, 1)
    muS2, _ = security_value(game, 2)
    # each cell with its (R1, R2, deviation profit), read once as Python floats
    cells = [(x, float(game.R1[x]), float(game.R2[x]), float(deviation_profit(game, [x])))
             for x in (JointAction(i, j) for i in range(game.n1) for j in range(game.n2))]

    best = None  # (score, u1, solution)
    for ia, x in enumerate(cells):
        for y in cells[ia:]:
            (xA, r1a, r2a, ra), (xB, r1b, r2b, rb) = (x, y) if x[2] >= y[2] else (y, x)
            r = max(ra, rb)  # r(X) is a max over the cells of X
            s1, s2 = r1a - r1b, r2a - r2b
            # least weight on xA that enforces the mix; with equal R2, any or none
            if r2a > r2b + _TOL:
                lo = (r + ep.eps + ep.K * (muS2 - r2b)) / (ep.K * s2)
                if lo > 1 + _TOL:
                    continue
                lo = min(max(lo, 0.0), 1.0)
            elif ep.K * r2a >= ep.K * muS2 + r + ep.eps - _TOL:
                lo = 0.0
            else:
                continue

            if not selfish:
                # both players' rewards weakly increase toward xA unless s1 < 0;
                # then den <= s1 < -1e-12, as xA has the larger R2
                peak = 1.0 if s1 >= -1e-12 else (r2b - r1b + muS1 - muS2) / (s1 - s2)
                alpha = min(max(peak, lo), 1.0)
            elif s1 > _TOL or xA == xB:
                alpha = 1.0
            else:  # the least weight that enforces the mix and holds u2 at muS2;
                # with s2 <= _TOL, r < _TOL - eps enforces it: r2b >= muS2 - _TOL
                alpha = min(max(lo, (muS2 - r2b) / s2) if s2 > _TOL else lo, 1.0)

            alpha += 0.0  # normalize -0.0
            u1 = alpha * r1a + (1 - alpha) * r1b
            u2 = alpha * r2a + (1 - alpha) * r2b
            score = u1 if selfish else min(u1 - muS1, u2 - muS2)
            # the selfish objective must stay inside U, the individually rational set
            if selfish and (u1 < muS1 - _TOL or u2 < muS2 - _TOL):
                continue
            cand = PairSolution(xA=xA, xB=xB, alpha=alpha, u1=u1, u2=u2,
                                deviation_profit=r, kind=BULLY if selfish else EBS)
            if best is None or score > best[0] + 1e-12 or (
                    score > best[0] - 1e-12 and u1 > best[1] + 1e-12):
                best = (score, u1, cand)

    if best is None or (not selfish and best[0] < -_TOL):
        return PairSolution(xA=None, xB=None, alpha=1.0, u1=muS1, u2=muS2,
                            deviation_profit=None, kind=SECURITY_FALLBACK)
    return best[2]


def enforceable_ebs(game: BimatrixGame, ep: EnforceParams) -> PairSolution:
    """The enforceable egalitarian solution: argmax of min_i(u_i - muS_i).

    Searches all joint-action pairs (including single cells, xA == xB); falls
    back to the pair of security values when no enforceable point dominates
    them.  Ties break toward higher u1, then lexicographic cell order.
    """
    return _solve(game, ep, selfish=False)


def bully_solution(game: BimatrixGame, ep: EnforceParams) -> PairSolution:
    """The enforceable outcome maximizing player 1's value alone."""
    return _solve(game, ep, selfish=True)


def punishment_length(solution: PairSolution, ep: EnforceParams,
                      muS2: float) -> int:
    """Least number of punishment rounds that still enforces the solution.

    K' = max{0, ceil((r(X) + eps) / (u2 - muS2))}, capped at K.
    """
    if solution.is_fallback or solution.deviation_profit is None:
        raise ValueError("punishment length is undefined for a security fallback")
    num = solution.deviation_profit + ep.eps
    if num <= 1e-12:
        return 0
    gap = solution.u2 - muS2
    if gap <= 1e-12:
        raise ValueError("solution is not enforceable: opponent gains nothing "
                         "over its security value yet profits from deviating")
    return min(ep.K, max(0, math.ceil(num / gap - 1e-12)))

