"""The LAFF agent: a fixed schedule of experts with a reward-based switch test.

Experts run in descending order of potential:

    follower (bully target), bully leader, follower (egalitarian target),
    egalitarian leader, follower (security target), maximin

The controller runs the switch test and both tripwires over its own running
sums since the last switch.  After each epoch of H = floor(sqrt(T)) steps,
the active expert is dropped when its average reward falls below the current
target minus a slack that shrinks with time.  A follower or maximin expert
that trips its exploitation test at a subepoch boundary hands the seat to
the egalitarian leader; after a follower trip, every later follower slot
starts as that leader.  Every follower slot runs the one follower, Q table
and all.  All of LAFF's decision rules and tuned constants live here.
"""

from __future__ import annotations

import math
from typing import Optional

from .bargaining import EnforceParams
from .engine import Agent, MatchConfig, StateLayout
from .experts import LeaderCore, LeaderKit, MaximinPolicy, SolutionMap, TabularQ
from .games import BimatrixGame


# Confidence level of the switch slack and the tripwire tests.
DELTA = 0.05
# Weights of the 1/tau and sqrt(log(T/delta)/tau) terms of the switch slack.
C1 = 0.05
C3 = 0.005
# Margin below the opponent's egalitarian value in the maximin tripwire.
ETA_M = 0.05
# Scale of the follower regret bound at the trip test.  The bound is stated
# only up to an O(1) factor; this value is calibrated so the tripwire fires
# on genuinely capped opponents within the first epoch but survives an
# ordinary learner's burn-in (see tests).
RQ_SCALE = 0.1
# Visit-count offset of the follower's learning rate.
H0 = 10


def switch_slack(tau: int, T: int, m: Optional[SolutionMap], eps: float) -> float:
    """How far an expert's average may fall below its target after tau steps.

    C1/tau + C3*sqrt(log(T/DELTA)/2tau) with no target solution (``m`` None);
    else the analysis form without the unobservable follower-regret terms: the
    1/tau term keeps the punishment-length numerator, with one leader phase (T/20)
    as a follower's adaptation time, and C3 scales by (3 + xi)/xi, so a thin
    enforcement margin xi buys a follower a long grace before it is dropped.
    """
    root = math.sqrt(math.log(T / DELTA) / (2 * tau))
    if m is None:
        return C1 / tau + C3 * root
    # tau >= 1, and xi > 0: -r >= eps > 0, or (eps + min(r, 0)) / 2K' > 0
    r, Kp = m.r, m.Kp
    if r == -math.inf:  # an opponent with one action: the limit as xi -> inf
        return Kp / tau + C3 * root
    xi = -r if r <= -eps else (eps if r >= 0 else eps + r) / (2 * max(1, Kp))
    return ((Kp * xi + C1 * max(T / 20.0, 1.0) + Kp + 1) / (xi * tau)
            + C3 * (3.0 + xi) / xi * root)


def rq_bound(tau: int, delta: float, S: int, A: int) -> float:
    """Regret scale of the tabular follower: (S*A*log(tau/delta))^(1/3) * tau^(2/3).

    Unit leading constant; the follower's trip test scales it by RQ_SCALE.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return (S * A * math.log(tau / delta)) ** (1.0 / 3.0) * tau ** (2.0 / 3.0)


def follower_trip(kit: LeaderKit, tau: int, cum: float, T: int, S: int) -> bool:
    """True when the average ``cum / tau`` falls below the own egalitarian
    value by more than the scaled follower-regret allowance over S states."""
    allowance = RQ_SCALE * rq_bound(tau, DELTA / T, S, kit.n_own)
    return cum / tau < kit.ebs.u1 - allowance / tau


def maximin_trip(kit: LeaderKit, n: int, opp_cum: float, T: int) -> bool:
    """True when the opponent's average ``opp_cum / n`` over n steps
    significantly exceeds its egalitarian value."""
    bound = kit.ebs.u2 - ETA_M + math.sqrt(math.log(T / DELTA) / (2 * n))
    return opp_cum / n > bound


def follower_rate(t: int, n: int) -> float:
    """The follower's learning rate at the n-th visit of a state-action pair."""
    return (H0 + 1.0) / (H0 + n)


class Laff(Agent):
    """Lead-and-follow expert controller for one seat of a repeated game."""

    def __init__(self, game: BimatrixGame, player: int, config: MatchConfig, rng):
        self.config = config
        self.rng = rng
        kit = self.kit = LeaderKit.build(game, player, EnforceParams(config.K, config.eps))
        # slots 1-5's switch tests: the target and the map that sets the slack
        self.guards = [(kit.bully.u1, kit.bully_map)] * 2 + [
            (kit.ebs.u1, kit.ebs_map)] * 2 + [(kit.mu_s_own, kit.ebs_map)]
        self.H = max(1, int(math.isqrt(config.T)))
        self.subepoch = max(1, math.ceil(math.sqrt(self.H)))
        self.S = StateLayout(game.n1, game.n2, config.K).n_states
        self.follower = TabularQ(self.kit.n_own, follower_rate, self.kit.ebs_weight)
        self.follower_tripped = False
        self.expert_index = 1   # the schedule slot, 1..6
        self.switch_times: list = []
        self._enter_slot()

    def _enter_slot(self):
        """Zero the sums since the switch and hand the seat to the slot's expert."""
        self.tau = 0          # steps,
        self.r_tau = 0.0      # own reward,
        self.opp_r_tau = 0.0  # and the opponent's reward after its first K steps
        self._activate(self._build_expert(self.expert_index))

    def _build_expert(self, j: int):
        if j in (1, 3, 5) and not self.follower_tripped:
            return self.follower
        if j == 6:
            return MaximinPolicy(self.kit.maximin, self.rng, self.kit.ebs_weight)
        return LeaderCore(self.kit, "bully" if j == 2 else "ebs", self.rng)

    def _activate(self, expert: Agent):
        """Hand the seat to ``expert``, whose weight is fixed while it acts."""
        self.active = expert
        self._act = expert.act
        self.weight = expert.report_weight()

    def act(self, state, t):
        return self._act(state, t)

    def observe(self, t, opp_action, r_own, r_opp):
        cfg, active = self.config, self.active
        active.observe(t, opp_action, r_own, r_opp)
        tau = self.tau = self.tau + 1
        self.r_tau += r_own
        if tau > cfg.K:
            self.opp_r_tau += r_opp
        if tau % self.subepoch == 0:
            if isinstance(active, TabularQ):
                # followers act only while no follower has tripped
                tripped = self.follower_tripped = follower_trip(
                    self.kit, tau, self.r_tau, cfg.T, self.S)
            else:
                tripped = (isinstance(active, MaximinPolicy) and tau > cfg.K
                           and maximin_trip(self.kit, tau - cfg.K,
                                            self.opp_r_tau, cfg.T))
            if tripped:
                self._activate(LeaderCore(self.kit, "ebs", self.rng))
        if tau % self.H == 0 and self.expert_index <= len(self.guards):
            target, m = self.guards[self.expert_index - 1]
            if self.r_tau / tau < target - switch_slack(tau, cfg.T, m, cfg.eps):
                self.expert_index += 1
                self.switch_times.append(t)
                self._enter_slot()
