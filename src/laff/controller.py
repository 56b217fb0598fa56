"""The LAFF agent: a fixed schedule of experts with a reward-based switch test.

Experts run in descending order of potential:

    follower (bully target), bully leader, follower (egalitarian target),
    egalitarian leader, follower (security target), maximin

After each epoch of H = floor(sqrt(T)) steps, the active expert is dropped
when its average reward since activation falls below the current target
minus a slack that shrinks with time.  Follower instances share one Q table.
When the active follower or maximin expert trips its exploitation test, the
controller hands the seat to the egalitarian leader; after a follower trip,
every later follower slot starts as that leader.
"""

from __future__ import annotations

import math

from .bargaining import EnforceParams, slack_b, slack_b_enforced, xi
from .engine import Agent, MatchConfig
from .experts import (DELTA, FollowerExpert, FollowerShared, LeaderCore,
                      LeaderKit, MaximinExpert)
from .games import BimatrixGame


class Laff(Agent):
    """Lead-and-follow expert controller for one seat of a repeated game."""

    N_EXPERTS = 6

    def __init__(self, game: BimatrixGame, player: int, config: MatchConfig, rng):
        self.game = game
        self.config = config
        self.rng = rng
        self.kit = LeaderKit.build(game, player,
                                   EnforceParams(config.K, config.eps))
        self.targets = [self.kit.bully.u1, self.kit.bully.u1,
                        self.kit.ebs.u1, self.kit.ebs.u1, self.kit.mu_s_own]
        self.H = max(1, int(math.isqrt(config.T)))
        self.subepoch = max(1, math.ceil(math.sqrt(self.H)))
        self.shared = FollowerShared()
        self.follower_tripped = False
        self.expert_index = 1   # the schedule slot, 1..N_EXPERTS
        self.tau = 0
        self.r_tau = 0.0
        self.switch_times: list = []
        self.active = self._build_expert(self.expert_index)

    def _build_expert(self, j: int):
        cfg, kit, rng = self.config, self.kit, self.rng
        if j in (1, 3, 5) and not self.follower_tripped:
            return FollowerExpert(self.game, cfg, kit, self.shared, self.subepoch)
        if j == 6:
            return MaximinExpert(cfg, kit, self.subepoch, rng)
        return LeaderCore(kit, "bully" if j == 2 else "ebs", rng)

    def report_weight(self):
        return self.active.report_weight()

    def act(self, state, t):
        return self.active.act(state, t)

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
        self.active.observe(t, opp_action, r_own, r_opp)
        if getattr(self.active, "tripped", False):
            if isinstance(self.active, FollowerExpert):
                self.follower_tripped = True
            self.active = LeaderCore(self.kit, "ebs", self.rng)
        self.tau += 1
        self.r_tau += r_own
        if self.expert_index < self.N_EXPERTS and self.tau % self.H == 0:
            if self.r_tau / self.tau < self.targets[self.expert_index - 1] - self._slack():
                self.expert_index += 1
                self.switch_times.append(t)
                self.tau = 0
                self.r_tau = 0.0
                self.active = self._build_expert(self.expert_index)
