"""LAFF's sub-algorithms: leader enforcement, optimistic-Q follower, maximin.

Leaders hold a bargaining solution, map the public signal bit to one of its
two cells, and punish recent opponent deviations with the punishment
strategy.  So that two independently built leaders coordinate on the same
correlated stream (self-play), cells are canonicalized in global
coordinates: the lexicographically smaller cell is assigned to signal 1 and
the reported weight is that cell's mixture weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

import numpy as np

from .bargaining import (EnforceParams, JointAction, PairSolution,
                         enforceable_ebs, bully_solution, punishment_length)
from .engine import Agent, HistoryState, state_space_size
from .games import BimatrixGame, security_value, punishment_strategy, swap_players


# Confidence level of LAFF's switch slack and tripwire tests.
DELTA = 0.05
# Margin below the opponent's egalitarian value in the maximin tripwire.
ETA_M = 0.05
# Scale of the follower regret bound at the trip test.  The bound is stated
# only up to an O(1) factor; this value is calibrated so the tripwire fires
# on genuinely capped opponents within the first epoch but survives an
# ordinary learner's burn-in (see tests).
RQ_SCALE = 0.1


def rq_bound(tau: int, delta: float, S: int, A: int) -> float:
    """Regret scale of the tabular follower: (S*A*log(tau/delta))^(1/3) * tau^(2/3).

    Unit leading constant; the follower's trip test scales it by RQ_SCALE.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return (S * A * math.log(tau / delta)) ** (1.0 / 3.0) * tau ** (2.0 / 3.0)


def _sample(dist: np.ndarray, rng) -> int:
    x = rng.random()
    acc = 0.0
    for i, p in enumerate(dist):
        acc += p
        if x < acc:
            return i
    return len(dist) - 1


@dataclass(frozen=True)
class SolutionMap:
    """A pair solution expressed as global cells keyed by the signal bit."""

    cell1: JointAction   # played when the signal bit is 1 (probability = weight)
    cell0: JointAction
    weight: float
    Kp: int
    r: float             # deviation profit of the solution's action set


def _to_global(cell: JointAction, player: int) -> JointAction:
    return cell if player == 1 else JointAction(cell.a2, cell.a1)


def _canonical_map(solution: PairSolution, player: int, Kp: int) -> Optional[SolutionMap]:
    if solution.is_fallback:
        return None
    xa = _to_global(solution.xA, player)
    xb = _to_global(solution.xB, player)
    if tuple(xb) < tuple(xa):
        xa, xb = xb, xa
        w = 1.0 - solution.alpha
    else:
        w = solution.alpha
    return SolutionMap(cell1=xa, cell0=xb, weight=float(w), Kp=Kp,
                       r=solution.deviation_profit)


@dataclass(frozen=True)
class LeaderKit:
    """Everything a seat needs to lead: solutions, punish/maximin strategies.

    Immutable, with read-only arrays, so that one kit can serve every agent
    built for the same seat of the same game.
    """

    player: int
    n_own: int
    n_opp: int
    mu_s_own: float
    maximin: np.ndarray      # own maximin strategy v_M
    punish: np.ndarray       # own punishment strategy v_P
    ebs: PairSolution        # own-frame values: u1 = own, u2 = opponent
    bully: PairSolution
    ebs_map: Optional[SolutionMap]
    bully_map: Optional[SolutionMap]

    @classmethod
    def build(cls, game: BimatrixGame, player: int, ep: EnforceParams) -> "LeaderKit":
        """The seat's kit, solved on the first call for this game instance.

        Later calls with the same player and ``ep`` return the same object,
        so every match on one game shares the seat's LPs and pair searches.
        """
        kit = game._kits.get((player, ep))
        if kit is None:
            kit = game._kits[(player, ep)] = cls._solve(game, player, ep)
        return kit

    @classmethod
    def _solve(cls, game: BimatrixGame, player: int, ep: EnforceParams) -> "LeaderKit":
        own = game if player == 1 else swap_players(game)
        mu_s_own, maximin = security_value(own, 1)
        mu_s_opp, _ = security_value(own, 2)
        _, punish = punishment_strategy(own)
        ebs = enforceable_ebs(own, ep)
        bully = bully_solution(own, ep)
        kp_e = 0 if ebs.is_fallback else punishment_length(ebs, ep, mu_s_opp)
        kp_b = 0 if bully.is_fallback else punishment_length(bully, ep, mu_s_opp)
        return cls(player=player, n_own=own.n1, n_opp=own.n2,
                   mu_s_own=mu_s_own, maximin=maximin, punish=punish,
                   ebs=ebs, bully=bully,
                   ebs_map=_canonical_map(ebs, player, kp_e),
                   bully_map=_canonical_map(bully, player, kp_b))

    @property
    def ebs_weight(self) -> float:
        return self.ebs_map.weight if self.ebs_map is not None else 0.0

    def solution_map(self, which: str) -> Optional[SolutionMap]:
        return self.ebs_map if which == "ebs" else self.bully_map


class LeaderCore(Agent):
    """Stationary enforcement of one solution map (the leader behavior).

    The leader's own signal bit selects the target cell each step; it plays
    its half and expects the opponent's half of that same cell.  Keying both
    halves on the leader's public signal keeps enforcement coherent no
    matter what weight the opponent reports.  For the first Kp steps after
    activation the target action is played unconditionally, so an opponent
    is never punished for play that predates the enforcement.  Afterwards,
    any opponent deviation within the last Kp steps triggers the punishment
    strategy (with probability ``punish_prob``, 1 by default).  With no
    enforceable solution the core degrades to the maximin strategy.  It is
    LAFF's leader expert as is; `opponents.LeaderOpponent` builds its own kit.
    """

    def __init__(self, kit: LeaderKit, which: str, rng, punish_prob: float = 1.0):
        self.kit = kit
        self.map = kit.solution_map(which)
        self.rng = rng
        self.punish_prob = float(punish_prob)
        self.steps_active = 0
        self.punish_steps = 0
        own, opp = (0, 1) if kit.player == 1 else (1, 0)
        # the seat's own signal bits and the opponent's actions in a state
        self._own_bits = attrgetter(("y1", "y2")[own])
        self._opp_actions = attrgetter(("a1", "a2")[opp])
        if self.map is not None:
            # indexed by the own signal bit: the own half of that bit's cell
            # (the target) and the opponent's half (its expected action)
            cells = (self.map.cell0, self.map.cell1)
            self.target = tuple(cell[own] for cell in cells)
            self.expected = tuple(cell[opp] for cell in cells)

    @property
    def weight(self) -> float:
        return self.map.weight if self.map is not None else 0.0

    def report_weight(self):
        return self.weight

    def _deviated(self, state: HistoryState) -> bool:
        opp_actions = self._opp_actions(state)
        own_bits = self._own_bits(state)
        for k in range(1, self.map.Kp + 1):
            if opp_actions[-k] != self.expected[own_bits[-k - 1]]:
                return True
        return False

    def act(self, state: HistoryState, t: int) -> int:
        if self.map is None:
            self.steps_active += 1
            return _sample(self.kit.maximin, self.rng)
        action = self.target[self._own_bits(state)[-1]]
        if self.steps_active >= self.map.Kp and self._deviated(state):
            if self.punish_prob >= 1.0 or self.rng.random() < self.punish_prob:
                action = _sample(self.kit.punish, self.rng)
                self.punish_steps += 1
        self.steps_active += 1
        return action

    def policy_distribution(self, state: HistoryState) -> np.ndarray:
        """Stationary action law at a state (the post-amnesty Markov policy)."""
        if self.map is None:
            return self.kit.maximin.copy()
        point = np.eye(self.kit.n_own)[self.target[self._own_bits(state)[-1]]]
        if self._deviated(state):
            return self.punish_prob * self.kit.punish + (1 - self.punish_prob) * point
        return point


class TabularQ:
    """Tabular Q-learning over memory-K states, optimistic at 1/(1 - GAMMA).

    A step's update waits for the state that follows it: `act` settles the
    pending step at the caller's learning rate ``schedule(n, t)``, for the
    step's visit count n (this visit included) and time t, and then defers
    the new step.
    """

    GAMMA = 0.95
    Q0 = 1.0 / (1.0 - GAMMA)

    def __init__(self, n_actions: int, schedule,
                 table: Optional[dict] = None, counts: Optional[dict] = None):
        self.n_actions = n_actions
        self.schedule = schedule
        self.table = table if table is not None else {}
        self.counts = counts if counts is not None else {}
        self._pending = None  # [state, action, reward, t] of the unsettled step

    def row(self, state):
        row = self.table.get(state)
        if row is None:
            row = [self.Q0] * self.n_actions
            self.table[state] = row
        return row

    def greedy(self, state) -> int:
        row = self.row(state)
        return row.index(max(row))  # ties go to the lowest index

    def act(self, state, t: int, action: Optional[int] = None) -> int:
        """Settle the pending step, then take ``action`` (greedy if None)."""
        row = self.row(state)
        if self._pending is not None:
            ps, pa, pr, pt = self._pending
            counts = self.counts.get(ps)
            if counts is None:
                counts = self.counts[ps] = [0] * self.n_actions
            counts[pa] += 1
            lr = self.schedule(counts[pa], pt)
            prev = self.table[ps]  # made when the pending step acted
            prev[pa] += lr * (pr + self.GAMMA * max(row) - prev[pa])
        if action is None:
            action = row.index(max(row))
        self._pending = [state, action, 0.0, t]
        return action

    def reward(self, r: float) -> None:
        """Record the reward of the pending step."""
        if self._pending is not None:
            self._pending[2] = r


@dataclass
class FollowerShared:
    """State carried across every follower instance within one match."""

    table: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class FollowerExpert(Agent):
    """Optimistic Q-learning with an exploitation tripwire.

    Learns greedily over memory-K states from an optimistic start.  At each
    subepoch boundary the running average since activation is compared with
    the own egalitarian value minus the scaled follower-regret allowance; a
    failure sets ``tripped``, on which the controller acts.
    """

    H0 = 10

    def __init__(self, game: BimatrixGame, config, kit: LeaderKit,
                 shared: FollowerShared, subepoch: int):
        self.config = config
        self.kit = kit
        self.subepoch = max(1, int(subepoch))
        self.S = state_space_size(game, config.K)
        self.A = kit.n_own
        self.q = TabularQ(self.A, self.learning_rate,
                          table=shared.table, counts=shared.counts)
        self.tau = 0
        self.cum = 0.0
        self.tripped = False

    @classmethod
    def learning_rate(cls, n: int, t: int) -> float:
        return (cls.H0 + 1.0) / (cls.H0 + n)

    def report_weight(self):
        return self.kit.ebs_weight

    def act(self, state, t):
        return self.q.act(state, t)

    def observe(self, t, opp_action, r_own, r_opp):
        self.q.reward(r_own)
        self.tau += 1
        self.cum += r_own
        if self.tau % self.subepoch == 0:
            allowance = RQ_SCALE * rq_bound(self.tau, DELTA / self.config.T,
                                            self.S, self.A)
            if self.cum / self.tau < self.kit.ebs.u1 - allowance / self.tau:
                self.tripped = True


class MaximinExpert(Agent):
    """Safety play with an exploitation tripwire on the opponent's rewards.

    Plays the maximin strategy; at subepoch boundaries, if the opponent's
    average reward since activation (first K steps excluded) significantly
    exceeds its egalitarian value, sets ``tripped``, on which the controller
    acts.
    """

    def __init__(self, config, kit: LeaderKit, subepoch: int, rng):
        self.config = config
        self.kit = kit
        self.subepoch = max(1, int(subepoch))
        self.rng = rng
        self.tau = 0
        self.opp_cum = 0.0
        self.tripped = False

    def report_weight(self):
        return self.kit.ebs_weight

    def act(self, state, t):
        return _sample(self.kit.maximin, self.rng)

    def observe(self, t, opp_action, r_own, r_opp):
        K = self.config.K
        self.tau += 1
        if self.tau > K:
            self.opp_cum += r_opp
        if self.tau % self.subepoch == 0 and self.tau > K:
            n = self.tau - K
            bound = (self.kit.ebs.u2 - ETA_M
                     + math.sqrt(math.log(self.config.T / DELTA) / (2 * n)))
            if self.opp_cum / n > bound:
                self.tripped = True
