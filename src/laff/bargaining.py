"""Enforceable bargaining solutions over pure-action pairs.

A candidate outcome is a convex combination (weight ``alpha`` on ``xA``) of at
most two joint actions.  It is epsilon-enforceable relative to a memory
length K when K rounds of punishment at the opponent's security value
outweigh the opponent's one-shot deviation profit by at least epsilon:

    K * u2 >= K * muS2 + r(X) + eps

The egalitarian solution maximizes min_i(u_i - muS_i) over the enforceable
set; the bully solution maximizes u1 alone.
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
# Weights of the 1/tau and sqrt(log(T/delta)/tau) terms of the switch slack.
C1 = 0.05
C3 = 0.005


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
        if self.eps <= 0:
            raise ValueError("enforceability slack eps must be > 0")


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
        alt = -math.inf
        for j in range(game.n2):
            if j != x2 and row[j] > alt:
                alt = row[j]
        best = max(best, alt - row[x2])
    return best


def alpha_lower_bound(game: BimatrixGame, xA: JointAction, xB: JointAction,
                      ep: EnforceParams, muS2: float) -> Optional[float]:
    """Least weight on xA for which the (xA, xB) mixture is enforceable.

    Requires R2(xA) >= R2(xB).  With strict inequality, returns the bound
    (it may exceed 1, marking the pair infeasible).  With equality, the
    weight is unconstrained: returns 0.0 when the constant condition
    K*R2(xA) >= K*muS2 + r + eps holds, else None (pair unenforceable).
    """
    r2a = game.reward(2, *xA)
    r2b = game.reward(2, *xB)
    if r2a < r2b - _TOL:
        raise ValueError("caller must order the pair so that R2(xA) >= R2(xB)")
    r = deviation_profit(game, {tuple(xA), tuple(xB)})
    K, eps = ep.K, ep.eps
    if r2a > r2b + _TOL:
        return (r + eps + K * (muS2 - r2b)) / (K * (r2a - r2b))
    if K * r2a >= K * muS2 + r + eps - _TOL:
        return 0.0
    return None


def _ordered(game, x, y):
    """Order a cell pair so that R2(xA) >= R2(xB)."""
    if game.reward(2, *x) >= game.reward(2, *y):
        return x, y
    return y, x


def _solve(game: BimatrixGame, ep: EnforceParams, selfish: bool) -> PairSolution:
    muS1, _ = security_value(game, 1)
    muS2, _ = security_value(game, 2)
    cells = [JointAction(i, j) for i in range(game.n1) for j in range(game.n2)]

    best = None  # (score, u1, solution)
    for ia, x in enumerate(cells):
        for y in cells[ia:]:
            xA, xB = _ordered(game, x, y)
            r1a, r1b = game.reward(1, *xA), game.reward(1, *xB)
            r2a, r2b = game.reward(2, *xA), game.reward(2, *xB)
            r = deviation_profit(game, {tuple(xA), tuple(xB)})
            bound = alpha_lower_bound(game, xA, xB, ep, muS2)
            if bound is None or bound > 1 + _TOL:
                continue
            lo = min(max(bound, 0.0), 1.0)

            if xA == xB:
                alpha = 1.0
            elif not selfish:
                s1 = r1a - r1b
                if s1 >= -1e-12:
                    # both players' rewards weakly increase toward xA
                    alpha = 1.0
                else:
                    den = (r1a - r1b) + (r2b - r2a)
                    if abs(den) < 1e-12:
                        alpha = lo
                    else:
                        peak = (r2b - r1b + muS1 - muS2) / den
                        alpha = min(max(peak, lo), 1.0)
            else:
                # selfish objective u1; the solution must stay inside U
                s1 = r1a - r1b
                s2 = r2a - r2b
                lo2, hi = lo, 1.0
                if s2 > _TOL:
                    lo2 = max(lo2, (muS2 - r2b) / s2)
                elif r2b < muS2 - _TOL:
                    continue
                if s1 > _TOL:
                    lo2 = max(lo2, (muS1 - r1b) / s1)
                elif s1 < -_TOL:
                    hi = min(hi, (muS1 - r1b) / s1)
                elif r1b < muS1 - _TOL:
                    continue
                lo2 = min(max(lo2, 0.0), 1.0)
                if lo2 > hi + _TOL:
                    continue
                hi = max(hi, lo2)
                alpha = hi if s1 > _TOL else lo2

            alpha = float(alpha) + 0.0  # normalize -0.0
            u1 = alpha * r1a + (1 - alpha) * r1b
            u2 = alpha * r2a + (1 - alpha) * r2b
            score = u1 if selfish else min(u1 - muS1, u2 - muS2)
            if selfish and (u1 < muS1 - _TOL or u2 < muS2 - _TOL):
                continue
            cand = PairSolution(xA=xA, xB=xB, alpha=float(alpha),
                                u1=float(u1), u2=float(u2),
                                deviation_profit=float(r),
                                kind=BULLY if selfish else EBS)
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


def xi(eps: float, r: float, Kp: int) -> float:
    """Per-step enforcement margin used by the slack schedule.

    xi = eps/(2K') if r >= 0; (eps+r)/(2K') if -eps < r < 0; -r otherwise.
    """
    if r >= 0:
        if Kp < 1:
            raise ValueError("punishment length must be >= 1 when r >= 0")
        return eps / (2 * Kp)
    if r > -eps:
        if Kp < 1:
            raise ValueError("punishment length must be >= 1 when r > -eps")
        return (eps + r) / (2 * Kp)
    return -r


def slack_b(tau: int, T: int, delta: float) -> float:
    """Bare two-term switch slack: C1/tau + C3*sqrt(log(T/d)/2tau).

    Solution-independent floor; the controller prefers `slack_b_enforced`
    when a target solution (hence its enforcement margin) is available.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return C1 / tau + C3 * math.sqrt(math.log(T / delta) / (2 * tau))


def slack_b_enforced(tau: int, T: int, delta: float, xi_val: float, Kp: int,
                     t0: float = 1.0) -> float:
    """Switch slack carrying the target solution's enforcement margin xi.

    Follows the analysis form with the unobservable follower-regret terms
    dropped: the 1/tau term keeps the punishment-length numerator (with the
    adaptation time collapsed to t0), and C3 multiplies the full
    sqrt-order coefficient (3 + xi)/xi.  Small margins xi buy followers a
    long re-learning grace before the expert is abandoned.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if xi_val <= 0:
        raise ValueError("enforcement margin xi must be positive")
    lead = (Kp * xi_val + C1 * max(t0, 1.0) + Kp + 1) / (xi_val * tau)
    root = C3 * (3.0 + xi_val) / xi_val * math.sqrt(math.log(T / delta) / (2 * tau))
    return lead + root

