"""LAFF's sub-algorithms: leader enforcement, optimistic-Q follower, maximin.

This module holds the leader kits (each seat's solutions, strategies and
play tables) and the three experts, which are plain agents: the zoo's
leader, Q-learning and maximin opponents are subclasses of the same three
classes.  The rules that choose among the experts live in `controller`.

Leaders hold a bargaining solution, map the public signal bit to one of its
two cells, and punish recent opponent deviations with the punishment
strategy.  So that two independently built leaders coordinate on the same
correlated stream (self-play), cells are canonicalized in global
coordinates: the lexicographically smaller cell is assigned to signal 1 and
the reported weight is that cell's mixture weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bargaining import (EnforceParams, JointAction, PairSolution,
                         enforceable_ebs, bully_solution, punishment_length)
from .engine import Agent, StateLayout
from .games import BimatrixGame, security_value, punishment_strategy, swap_players


# Most state codes a kit's play tables may cover.  Building them peaks at 50-80
# bytes a code (228 MB for a 2x2 game at K=5, which is at the budget; a 3x2
# game at K=4 has 1,327,104 codes), so a larger layout is refused first.
MAX_STATE_CODES = 2 ** 22


def _sample(dist: np.ndarray, rng) -> int:
    x = rng.random()
    acc = 0.0
    for i, p in enumerate(dist):
        acc += p
        if x < acc:
            return i
    return int(np.flatnonzero(dist > 0)[-1])  # the sums fell short of x


@dataclass(frozen=True)
class SolutionMap:
    """A pair solution as the seat's play table over the global state codes."""

    weight: float        # probability of signal bit 1, which picks the smaller cell
    Kp: int
    r: float             # deviation profit of the solution's action set
    # the seat's target action at every state code, or ~a where the opponent
    # left the expected cell in the last Kp steps; each step's own signal
    # bit picks its cell
    plays: tuple = field(repr=False, compare=False)


def _to_global(cell: JointAction, player: int) -> JointAction:
    return cell if player == 1 else JointAction(cell.a2, cell.a1)


def _canonical_map(solution: PairSolution, player: int, ep: EnforceParams,
                   mu_s_opp: float, layout: StateLayout) -> Optional[SolutionMap]:
    """The seat's solution in global cells, with its punishment length and
    play table over the layout's codes; None for the security fallback."""
    if solution.is_fallback:
        return None
    xa = _to_global(solution.xA, player)
    xb = _to_global(solution.xB, player)
    if tuple(xb) < tuple(xa):
        xa, xb = xb, xa
        w = 1.0 - solution.alpha
    else:
        w = solution.alpha
    Kp, own = punishment_length(solution, ep, mu_s_opp), player - 1
    target, expected = (np.array([xb[i], xa[i]]) for i in (own, 1 - own))
    codes = np.arange(layout.n_states)
    # the own signal bits and the opponent's actions, newest lowest
    bits = codes // layout.signals_unit(player)
    opp_actions = codes // layout.actions_unit(2 - own)
    play, deviated = target[bits & 1], np.zeros(codes.size, dtype=bool)
    n_opp = (layout.n1, layout.n2)[1 - own]
    for _ in range(Kp):
        bits >>= 1
        opp_actions, last = np.divmod(opp_actions, n_opp)
        deviated |= last != expected[bits & 1]
    return SolutionMap(weight=float(w), Kp=Kp, r=solution.deviation_profit,
                       plays=tuple(np.where(deviated, ~play, play).tolist()))


@dataclass(frozen=True)
class LeaderKit:
    """Everything a seat needs to lead: solutions, punish/maximin strategies
    and the maps' play tables, all made by `_solve`.

    Immutable, with read-only arrays, so that one kit can serve every agent
    built for the same seat of the same game.  Its arrays are strategies of
    the game's LP cache, which a pickle round trip of the game re-freezes.
    """

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
        so every match on one game shares the seat's pair searches.  The
        LPs are cached per game instance and shared with the swapped view,
        so both seats' kits solve each distinct LP matrix once.
        """
        kit = game._kits.get((player, ep))
        if kit is None:
            kit = game._kits[(player, ep)] = cls._solve(game, player, ep)
        return kit

    @classmethod
    def _solve(cls, game: BimatrixGame, player: int, ep: EnforceParams) -> "LeaderKit":
        layout = StateLayout(game.n1, game.n2, ep.K)
        if layout.n_states > MAX_STATE_CODES:
            raise ValueError(f"K={ep.K} gives game '{game.name}' {layout.n_states} state "
                             f"codes, above the leaders' budget of {MAX_STATE_CODES}")
        own = game if player == 1 else swap_players(game)
        mu_s_own, maximin = security_value(own, 1)
        mu_s_opp, _ = security_value(own, 2)
        _, punish = punishment_strategy(own)
        ebs = enforceable_ebs(own, ep)
        bully = bully_solution(own, ep)
        return cls(n_own=own.n1, n_opp=own.n2, mu_s_own=mu_s_own,
                   maximin=maximin, punish=punish, ebs=ebs, bully=bully,
                   ebs_map=_canonical_map(ebs, player, ep, mu_s_opp, layout),
                   bully_map=_canonical_map(bully, player, ep, mu_s_opp, layout))

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
    strategy (with probability ``punish_prob``, 1 by default), as the kit's
    play table says.  With no enforceable solution a `MaximinPolicy` plays.
    It is LAFF's leader expert as is; `opponents.LeaderOpponent` builds its
    own kit.
    """

    def __init__(self, kit: LeaderKit, which: str, rng, punish_prob: float = 1.0):
        self.kit = kit
        self.map = kit.solution_map(which)
        self.rng = rng
        self.punish_prob = float(punish_prob)
        self.steps_active = 0
        self.punish_steps = 0
        if self.map is None:
            self.maximin = MaximinPolicy(kit.maximin, rng)
        else:
            self.weight = self.map.weight
            self.plays = self.map.plays
            self._points = np.eye(kit.n_own)

    def act(self, state: int, t: int) -> int:
        self.steps_active += 1
        if self.map is None:
            return self.maximin.act(state, t)
        action = self.plays[state]
        if action < 0:  # the opponent deviated
            action = ~action
            if self.steps_active > self.map.Kp and (
                    self.punish_prob >= 1.0 or self.rng.random() < self.punish_prob):
                self.punish_steps += 1
                return _sample(self.kit.punish, self.rng)
        return action

    def policy_distribution(self, state: int) -> np.ndarray:
        """Stationary action law at a state (the post-amnesty Markov policy)."""
        if self.map is None:
            return self.maximin.policy_distribution(state)
        action = self.plays[state]
        if action < 0:
            point = self._points[~action]
            return self.punish_prob * self.kit.punish + (1 - self.punish_prob) * point
        return self._points[action].copy()


class TabularQ(Agent):
    """Tabular Q-learning over state codes, optimistic at 1/(1 - GAMMA).

    `act` at time t settles the step pending from t - 1, now that its next
    state is known, at the caller's learning rate ``schedule(t - 1, n)`` for
    the step's visit count n (this visit included), then defers the new step
    for `observe` to reward.  An older pending step was cut off while another
    agent held the seat, so `act` drops it unsettled.  Greedy, it is LAFF's
    follower; `opponents.EpsGreedyQAgent` explores.
    """

    GAMMA = 0.95
    Q0 = 1.0 / (1.0 - GAMMA)

    def __init__(self, n_actions: int, schedule, weight: float = 0.0):
        self.n_actions = n_actions
        self.schedule = schedule
        self.weight = weight
        self.table, self.counts = {}, {}
        self._pending = [0, 0, 0.0, None]  # [state, action, reward, t] of the last step

    def act(self, state, t: int, action: Optional[int] = None) -> int:
        """Settle the pending step, then take ``action`` (greedy if None)."""
        table = self.table
        row = table.get(state)
        if row is None:
            row = table[state] = [self.Q0] * self.n_actions
        best = max(row)
        pending = self._pending
        if pending[3] == t - 1:  # None before the first step
            ps, pa, pr, pt = pending
            counts = self.counts.get(ps)
            if counts is None:
                counts = self.counts[ps] = [0] * self.n_actions
            n = counts[pa] = counts[pa] + 1
            prev = table[ps]  # made when the pending step acted
            prev[pa] += self.schedule(pt, n) * (pr + self.GAMMA * best - prev[pa])
            if prev is row:
                best = max(row)
        if action is None:
            action = row.index(best)  # ties go to the lowest index
        self._pending = [state, action, 0.0, t]
        return action

    def observe(self, t, opp_action, r_own, r_opp):
        """Record the reward of the pending step."""
        self._pending[2] = r_own


class MaximinPolicy(Agent):
    """Plays a fixed mixed strategy, in LAFF and the zoo the maximin one."""

    def __init__(self, strategy: np.ndarray, rng, weight: float = 0.0):
        self.strategy = strategy
        self.rng = rng
        self.weight = weight

    def act(self, state, t):
        return _sample(self.strategy, self.rng)

    def policy_distribution(self, state):
        return self.strategy.copy()
