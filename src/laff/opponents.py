"""Opponent algorithms: leaders, learners, and the phase-switching Manipulator.

Every opponent is built for a specific seat (player 1 or 2) of the global
game and honors the engine's act/observe interface.  Bounded-memory kinds
(bully, ftft, egal, fixed, maximin) also expose a Markov policy over states,
``policy_distribution``, so benchmark values can be computed exactly.
`build_agent` is the one registry of kinds and their parameters; the
bounded-memory kinds are read off it, and `bounded_memory_policy` reads the
policy off the agent it builds.  The leader, Q-learning and maximin kinds
are seat-building subclasses of LAFF's own experts (`LeaderCore`,
`TabularQ`, `MaximinPolicy`), and the manipulator's arms are agents too.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np

from .bargaining import EnforceParams
from .controller import Laff
from .engine import Agent, FixedActionAgent, MatchConfig, agent_rng
from .experts import LeaderCore, LeaderKit, MaximinPolicy, TabularQ
from .games import BimatrixGame, security_value


class LeaderOpponent(LeaderCore):
    """Standalone leader: enforces its own bargaining solution forever."""

    def __init__(self, game, player, config, rng, which: str, p: float = 1.0):
        kit = LeaderKit.build(game, player, EnforceParams(config.K, config.eps))
        super().__init__(kit, which, rng, punish_prob=p)


class MaximinAgent(MaximinPolicy):
    """Plays the own maximin strategy unconditionally."""

    def __init__(self, game, player, config, rng):
        super().__init__(security_value(game, player)[1], rng)


class EpsGreedyQAgent(TabularQ):
    """Epsilon-greedy tabular Q over memory-K states.

    Optimistic start 1/(1-gamma) with gamma = 0.95; greedy with probability
    1 - 1/(10 + t/10); learning rate 5/(10 + t/100).
    """

    def __init__(self, game: BimatrixGame, player: int, config, rng):
        super().__init__(game.n1 if player == 1 else game.n2, self.learning_rate)
        self.rng = rng
        self._random = rng.random

    @staticmethod
    def explore_prob(t: int) -> float:
        return 1.0 / (10.0 + t / 10.0)

    @staticmethod
    def learning_rate(t: int, visits: int = 0) -> float:  # visits unused
        return 5.0 / (10.0 + t / 100.0)

    def act(self, state, t):
        action = None
        if self._random() < self.explore_prob(t):
            action = int(self.rng.integers(self.n_actions))
        return TabularQ.act(self, state, t, action)


class FictitiousPlayAgent(Agent):
    """Best response to the empirical marginal of the opponent's past actions.

    State-independent; starts from a uniform prior and breaks ties toward
    the lowest action index.  Deterministic given the opponent's sequence.
    """

    def __init__(self, game: BimatrixGame, player: int, *_):
        # build_agent also passes the config and rng, which FP does not need
        self.M = game.R1 if player == 1 else game.R2.T  # own x opponent payoffs
        self.counts = np.zeros(self.M.shape[1])
        self.seen = 0  # observations so far, self.counts.sum()
        self.prior = np.full(self.M.shape[1], 1.0 / self.M.shape[1])

    def act(self, state, t):
        phat = self.counts / self.seen if self.seen else self.prior
        return int((self.M @ phat).argmax())

    def observe(self, t, opp_action, r_own, r_opp):
        self.counts[opp_action] += 1
        self.seen += 1


class ManipulatorAgent(Agent):
    """Leads with its selfish solution, falls back to RL, locks the winner.

    Its two arms are agents, a bully `LeaderCore` and an `EpsGreedyQAgent`.
    Phase 1 (first T/20 steps): plays its bully leader.  Afterwards, if the
    overall average reward sits below the bully value minus eps', each step
    switches to the RL arm with probability p_switch.  3T/10 steps after
    switching, a nonstationary opponent causes the better-performing arm to
    be locked; a stationary one buys the RL arm another T/20-step audition
    before the same decision.  Whenever the overall average falls below the
    security value minus eps', the maximin strategy temporarily overrides.
    Nonstationarity = total-variation distance > 0.1 between the opponent's
    action distributions over the last two T/20-step windows.
    """

    def __init__(self, game: BimatrixGame, player: int, config, rng,
                 eps_prime: float, p_switch: float):
        self.rng = rng
        self.eps_prime = float(eps_prime)
        self.p_switch = float(p_switch)
        self.kit = LeaderKit.build(game, player, EnforceParams(config.K, config.eps))
        self.arms = {"leader": LeaderCore(self.kit, "bully", rng),
                     "rl": EpsGreedyQAgent(game, player, config, rng)}
        self.maximin = MaximinPolicy(self.kit.maximin, rng)
        self.window = max(1, config.T // 20)
        self.probe = max(1, 3 * config.T // 10)
        self.phase = "leader"          # leader | rl | locked
        self.arm = "leader"            # the arm that plays: leader | rl
        self.t_switch: Optional[int] = None
        self.cum = 0.0
        self.arm_cum = 0.0             # reward since the playing arm took over
        self.leader_avg: Optional[float] = None  # the leader arm's average at the switch
        self.opp_actions: list = []
        self.override = False
        self.override_steps = 0

    def _tv_nonstationary(self) -> bool:
        w = self.window  # called only at t > window + probe >= 2 * window
        last = np.bincount(self.opp_actions[-w:], minlength=self.kit.n_opp) / w
        prev = np.bincount(self.opp_actions[-2 * w:-w], minlength=self.kit.n_opp) / w
        return 0.5 * np.abs(last - prev).sum() > 0.1

    def report_weight(self):
        return self.arms[self.arm].report_weight()

    def act(self, state, t):
        if self.override:
            self.override_steps += 1
            return self.maximin.act(state, t)
        return self.arms[self.arm].act(state, t)

    def observe(self, t, opp_action, r_own, r_opp):
        self.cum += r_own
        self.arm_cum += r_own
        self.opp_actions.append(int(opp_action))
        # the arm and the override only change below, so they tell who acted
        if not self.override:
            self.arms[self.arm].observe(t, opp_action, r_own, r_opp)

        avg = self.cum / t  # the engine observes every step, so t counts them
        self.override = avg < self.kit.mu_s_own - self.eps_prime

        if self.phase == "leader" and t > self.window:
            if (avg < self.kit.bully.u1 - self.eps_prime
                    and self.rng.random() < self.p_switch):
                self.phase = self.arm = "rl"
                self.t_switch, self.leader_avg, self.arm_cum = t, avg, 0.0
        elif self.phase == "rl":
            elapsed = t - self.t_switch
            if elapsed in (self.probe, self.probe + self.window):
                if self._tv_nonstationary():  # lock the arm with the better average
                    self.phase = "locked"
                    if self.leader_avg >= self.arm_cum / elapsed:
                        self.arm = "leader"
                elif elapsed > self.probe:
                    self.phase = "locked"  # a stationary opponent keeps RL


# parameter -> (check, what the check demands)
_UNIT = (lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]")
_PARAM_RANGES = {"p": _UNIT, "p_switch": _UNIT, "weight": _UNIT,
                 "eps_prime": (lambda x: math.isfinite(x) and x >= 0.0,
                               "be finite and >= 0")}

# kind -> (constructor(game, player, config, rng, **params), {param: default})
_KINDS = {
    "laff": (Laff, {}),
    "bully": (partial(LeaderOpponent, which="bully"), {}),
    # forgiving tit-for-tat: the egalitarian leader, punishing only w.p. p
    "ftft": (partial(LeaderOpponent, which="ebs"), {"p": 0.2}),
    "qlearn": (EpsGreedyQAgent, {}),
    "fp": (FictitiousPlayAgent, {}),
    "manipulator": (ManipulatorAgent, {"eps_prime": 0.025, "p_switch": 0.00005}),
    "egal": (partial(LeaderOpponent, which="ebs"), {}),
    "maximin": (MaximinAgent, {}),
}
AGENT_NAMES = tuple(_KINDS)
# the kinds with a Markov policy: their class has ``policy_distribution``
BOUNDED_MEMORY = tuple(name for name, (make, _) in _KINDS.items()
                       if hasattr(getattr(make, "func", make), "policy_distribution"))


def _checked_params(name: str, defaults: dict, params) -> dict:
    """The kind's defaults overridden by ``params``, each key and value checked."""
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError(f"parameters of agent '{name}' must be a JSON object")
    out = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            accepted = ", ".join(defaults) or "none"
            raise ValueError(f"agent '{name}' has no parameter '{key}' "
                             f"(accepted: {accepted})")
        check, demand = _PARAM_RANGES[key]
        # a JSON true/false is a bool, which Python also counts as an int
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not check(value)):
            raise ValueError(f"parameter '{key}' of agent '{name}' must {demand}, "
                             f"got {value!r}")
        out[key] = value
    return out


def build_agent(name: str, game: BimatrixGame, player: int, config: MatchConfig,
                params: Optional[dict] = None) -> Agent:
    """Construct an agent by name for one seat; 'fixed:<a>' plays action a."""
    if name.startswith("fixed:"):
        text = name[len("fixed:"):]
        try:
            action = int(text)
            if str(action) != text:  # one spelling, so one name per agent
                raise ValueError
        except ValueError:
            raise ValueError(f"agent '{name}' needs an integer action, "
                             f"as in fixed:0") from None
        n = game.n1 if player == 1 else game.n2
        return FixedActionAgent(action, n, player=player,
                                **_checked_params(name, {"weight": 0.0}, params))
    if name not in _KINDS:
        raise KeyError(f"unknown agent '{name}'; choose from {AGENT_NAMES} "
                       f"or fixed:<a>")
    make, defaults = _KINDS[name]
    kwargs = _checked_params(name, defaults, params)
    return make(game, player, config, agent_rng(config.seed, player), **kwargs)


def bounded_memory_policy(name: str, game: BimatrixGame, config: MatchConfig):
    """Markov policy and signal weight of a bounded-memory opponent kind.

    Returns (policy, w) where ``policy(state) -> distribution`` over player
    2's actions; used to induce player 1's benchmark MDP.
    """
    if name not in BOUNDED_MEMORY and not name.startswith("fixed:"):
        raise KeyError(f"'{name}' is not a bounded-memory opponent kind")
    agent = build_agent(name, game, 2, config)
    return agent.policy_distribution, agent.report_weight()
