"""Repeated-game engine: memory-K states, public signals, seeded match loop.

The state at step t holds both players' last K actions and last K+1 signal
bits (the current bit included).  One uniform draw x_t per step feeds both
players' signal bits, y_i = 1[x_t < w_i], so equal weights give a shared
coin.  All randomness in a match derives from the seed: the engine stream
and one substream per agent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np


class HistoryState(NamedTuple):
    """Last K actions per player plus last K+1 signal bits per player."""

    a1: tuple
    a2: tuple
    y1: tuple
    y2: tuple


@dataclass
class MatchConfig:
    """Horizon, memory, enforceability margin and seed of one match."""

    T: int
    K: int = 1
    eps: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.T < 1 or self.K < 1:
            raise ValueError("T and K must be >= 1")
        if self.eps <= 0:
            raise ValueError("need eps > 0")

    def with_seed(self, seed: int) -> "MatchConfig":
        return replace(self, seed=int(seed))


def state_space_size(game, K: int) -> int:
    """Number of distinct memory-K states: (n1*n2)^K * 2^(2K+2)."""
    return (game.n1 * game.n2) ** K * 2 ** (2 * K + 2)


def draw_signals(x: float, w1: float, w2: float):
    """Both players' signal bits from the shared uniform draw x."""
    return int(x < w1), int(x < w2)


def engine_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def agent_rng(seed: int, player: int) -> np.random.Generator:
    """Per-agent substream, independent of the engine draw order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(player,)))


class Agent:
    """Uniform act/observe interface satisfied by LAFF, experts and opponents.

    Agents are constructed for a specific seat (player 1 or 2) of a specific
    game.  Each step the engine asks both seats for their signal weight,
    shows both the same state in the global frame, and then tells each seat
    the opponent's action and the two rewards, its own first.
    """

    def report_weight(self) -> float:
        return 0.0

    def act(self, state: HistoryState, t: int) -> int:
        raise NotImplementedError

    def observe(self, t: int, opp_action: int, r_own: float, r_opp: float) -> None:
        pass


@dataclass
class MatchTrace:
    """Per-step actions, signals, draws and rewards for one match."""

    t: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    x: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    expert1: Optional[np.ndarray] = None
    expert2: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.t)

    def mean_rewards(self):
        return float(self.r1.mean()), float(self.r2.mean())

    def columns(self):
        cols = [("t", self.t), ("a1", self.a1), ("a2", self.a2),
                ("y1", self.y1), ("y2", self.y2), ("x", self.x),
                ("r1", self.r1), ("r2", self.r2)]
        if self.expert1 is not None:
            cols.append(("expert1", self.expert1))
        if self.expert2 is not None:
            cols.append(("expert2", self.expert2))
        return cols


def _weight_error(w1: float, w2: float, t: int) -> RuntimeError:
    player, w = (2, w2) if 0.0 <= w1 <= 1.0 else (1, w1)
    return RuntimeError(f"player {player} agent reported weight {w} "
                        f"outside [0, 1] at step {t}")


def run_match(game, alg1: Agent, alg2: Agent, config: MatchConfig) -> MatchTrace:
    """Play T steps of the repeated game; identical seeds give identical traces.

    Histories start at action 0 with signal bits drawn from the seeded
    stream (weights requested once at t=0), so the first K+1 uniform draws
    fully determine the starting state.
    """
    T, K = config.T, config.K
    rng = engine_rng(config.seed)
    R1, R2 = game.R1, game.R2
    n1, n2 = game.n1, game.n2

    a1h = (0,) * K
    a2h = (0,) * K
    w1 = float(alg1.report_weight())
    w2 = float(alg2.report_weight())
    if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
        raise _weight_error(w1, w2, 0)
    y1h, y2h = (), ()
    for _ in range(K):
        xb = rng.random()
        b1, b2 = draw_signals(xb, w1, w2)
        y1h += (b1,)
        y2h += (b2,)

    t_col = np.arange(1, T + 1, dtype=np.int64)
    a1_col = np.empty(T, dtype=np.int64)
    a2_col = np.empty(T, dtype=np.int64)
    y1_col = np.empty(T, dtype=np.int64)
    y2_col = np.empty(T, dtype=np.int64)
    x_col = np.empty(T, dtype=np.float64)
    r1_col = np.empty(T, dtype=np.float64)
    r2_col = np.empty(T, dtype=np.float64)

    for t in range(1, T + 1):
        w1 = float(alg1.report_weight())
        w2 = float(alg2.report_weight())
        if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
            raise _weight_error(w1, w2, t)
        x = rng.random()
        b1, b2 = draw_signals(x, w1, w2)
        y1h = y1h[-K:] + (b1,)
        y2h = y2h[-K:] + (b2,)
        state = HistoryState(a1h, a2h, y1h, y2h)

        a1 = alg1.act(state, t)
        a2 = alg2.act(state, t)
        if not 0 <= a1 < n1:
            raise RuntimeError(f"player 1 agent returned action {a1} "
                               f"outside 0..{n1 - 1} at step {t}")
        if not 0 <= a2 < n2:
            raise RuntimeError(f"player 2 agent returned action {a2} "
                               f"outside 0..{n2 - 1} at step {t}")
        r1 = R1[a1, a2]
        r2 = R2[a1, a2]
        alg1.observe(t, a2, r1, r2)
        alg2.observe(t, a1, r2, r1)

        i = t - 1
        a1_col[i] = a1
        a2_col[i] = a2
        y1_col[i] = b1
        y2_col[i] = b2
        x_col[i] = x
        r1_col[i] = r1
        r2_col[i] = r2

        a1h = a1h[1:] + (a1,)
        a2h = a2h[1:] + (a2,)

    return MatchTrace(t=t_col, a1=a1_col, a2=a2_col,
                      y1=y1_col, y2=y2_col, x=x_col, r1=r1_col, r2=r2_col,
                      expert1=_expert_column(alg1, t_col),
                      expert2=_expert_column(alg2, t_col))


def _expert_column(agent: Agent, t_col: np.ndarray) -> Optional[np.ndarray]:
    """The schedule slot that acted at each step, for an agent with ``switch_times``.

    A slot changes only in ``observe``, after that step's ``act``, so the
    slot acting at step t is 1 plus the number of switches before t.
    """
    switch_times = getattr(agent, "switch_times", None)
    if switch_times is None:
        return None
    return 1 + np.searchsorted(switch_times, t_col)


class FixedActionAgent(Agent):
    """Plays one action forever; the simplest probe opponent."""

    def __init__(self, action: int, n_actions: int, player: int = 1,
                 weight: float = 0.0):
        if not 0 <= action < n_actions:
            raise ValueError(f"fixed:{action} is not an action of player {player}; "
                             f"choose 0..{n_actions - 1}")
        self.action = int(action)
        self._w = float(weight)
        self._point = np.eye(n_actions)[self.action]

    def report_weight(self):
        return self._w

    def act(self, state, t):
        return self.action

    def policy_distribution(self, state):
        return self._point.copy()
