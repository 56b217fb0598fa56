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
starts as that leader.  Follower instances share one Q table.
"""

from __future__ import annotations

import math

from .bargaining import EnforceParams, slack_b, slack_b_enforced, xi
from .engine import Agent, MatchConfig, StateLayout
from .experts import (DELTA, LeaderCore, LeaderKit, MaximinPolicy, TabularQ,
                      follower_rate, follower_trip, maximin_trip)
from .games import BimatrixGame


class Laff(Agent):
    """Lead-and-follow expert controller for one seat of a repeated game."""

    N_EXPERTS = 6

    def __init__(self, game: BimatrixGame, player: int, config: MatchConfig, rng):
        self.config = config
        self.rng = rng
        self.kit = LeaderKit.build(game, player,
                                   EnforceParams(config.K, config.eps))
        self.targets = [self.kit.bully.u1, self.kit.bully.u1,
                        self.kit.ebs.u1, self.kit.ebs.u1, self.kit.mu_s_own]
        self.H = max(1, int(math.isqrt(config.T)))
        self.subepoch = max(1, math.ceil(math.sqrt(self.H)))
        self.S = StateLayout(game.n1, game.n2, config.K).n_states
        self.q_table, self.q_counts = {}, {}   # shared by every follower
        self.follower_tripped = False
        self.expert_index = 1   # the schedule slot, 1..N_EXPERTS
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
            return TabularQ(self.kit.n_own, follower_rate, self.kit.ebs_weight,
                            self.q_table, self.q_counts)
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

    def _slack(self) -> float:
        cfg = self.config
        # the test guards the target solution of the current schedule slot
        which = "bully" if self.expert_index <= 2 else "ebs"
        m = self.kit.solution_map(which)
        if m is None:
            return slack_b(self.tau, cfg.T, DELTA)
        xi_val = xi(cfg.eps, m.r, max(1, m.Kp))
        # t0, the adaptation time granted to a follower after this seat
        # turns stationary, is one leader phase
        return slack_b_enforced(self.tau, cfg.T, DELTA, xi_val, m.Kp,
                                t0=cfg.T / 20.0)

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
        if tau % self.H == 0 and self.expert_index < self.N_EXPERTS:
            if self.r_tau / tau < self.targets[self.expert_index - 1] - self._slack():
                self.expert_index += 1
                self.switch_times.append(t)
                self._enter_slot()
