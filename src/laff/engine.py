"""Repeated-game engine: memory-K state codes, public signals, seeded match loop.

The state at step t holds both players' last K actions and last K+1 signal
bits (the current bit included), packed into one mixed-radix integer, the
state code.  Its digits, most significant first, are player 1's last K
actions in base n1, player 2's last K actions in base n2, player 1's K+1
signal bits and player 2's K+1 signal bits, each oldest first.  So the
codes of a game run over 0 .. StateLayout.n_states - 1, and their numeric
order is the lexicographic order of the tuples (a1, a2, y1, y2).
`StateLayout` is the one place that knows where each digit group sits.  One
uniform draw x_t per step feeds both players' signal bits, y_i = 1[x_t < w_i],
so equal weights give a shared coin.  All randomness in a match derives from
the seed: the engine stream and one substream per agent, both read as PCG64's
raw words, whose sequence numpy keeps stable across releases, and turned into
numbers here as numpy's ``Generator`` turns them (`AgentStream`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import length_hint
from typing import Optional

import numpy as np

from .bargaining import EnforceParams


@dataclass
class MatchConfig:
    """Horizon, memory, enforceability margin and seed of one match."""

    T: int
    K: int = 1
    eps: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("horizon T must be >= 1")
        EnforceParams(self.K, self.eps)  # checks K and eps


class StateLayout:
    """Where each digit group sits in the memory-K state codes of an n1 x n2 game.

    Group g of (a1, a2, y1, y2) takes ``sizes[g]`` values (n1^K, n2^K,
    2^(K+1), 2^(K+1)) and reads ``code // units[g] % sizes[g]``, its newest
    digit lowest, so ``units[g]`` is the place value of that newest digit.
    """

    def __init__(self, n1: int, n2: int, K: int):
        m1, m2, mY = n1 ** K, n2 ** K, 2 ** (K + 1)
        self.n1, self.n2, self.K = n1, n2, K
        self.sizes = (m1, m2, mY, mY)
        self.units = (m2 * mY * mY, mY * mY, mY, 1)

    @property
    def n_states(self) -> int:
        """Number of distinct codes: (n1*n2)^K * 2^(2K+2)."""
        return self.sizes[0] * self.units[0]

    def actions_unit(self, player: int) -> int:
        """Place value of the newest digit of ``player``'s action group."""
        return self.units[player - 1]

    def signals_unit(self, player: int) -> int:
        """Place value of ``player``'s current signal bit."""
        return self.units[player + 1]

    def successor(self, code: int, a1: int, a2: int, b1: int, b2: int) -> int:
        """The code one step on: each group drops its oldest digit and takes
        the new one (actions a1, a2, signal bits b1, b2) as its newest."""
        m1, m2, mY, _ = self.sizes
        u1, u2, uY, _ = self.units
        return ((code // u1 * self.n1 % m1 + a1) * u1
                + (code // u2 * self.n2 % m2 + a2) * u2
                + (code // uY * 2 % mY + b1) * uY
                + code * 2 % mY + b2)


def engine_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _doubles(words: np.ndarray) -> np.ndarray:
    return (words >> 11) * 2.0 ** -53  # as ``Generator.random`` makes doubles


class AgentStream:
    """An agent's draws: what ``gen.random()`` and ``gen.integers(n)`` would
    return, computed from blocks of ``block`` raw words of ``gen.bit_generator``.

    Both read the block, fetched on the first draw, at one cursor: the
    iterator over its doubles.  `integers(n)`, for 1 <= n <= 2**32, is numpy's
    32-bit Lemire draw on a word's low half, and it keeps the high half for the
    next `integers`, as PCG64's ``next_uint32`` does; n == 1 draws nothing.
    """

    __slots__ = ("gen", "block", "_words", "_doubles", "_half")

    def __init__(self, gen: np.random.Generator, block: int = 256):
        self.gen, self.block = gen, block
        self._words, self._doubles, self._half = None, iter(()), None

    def random(self) -> float:
        try:
            return next(self._doubles)
        except StopIteration:
            self._words = self.gen.bit_generator.random_raw(self.block)
            self._doubles = iter(_doubles(self._words).tolist())
            return next(self._doubles)

    def integers(self, n: int) -> np.int64:
        if n == 1:
            return np.int64(0)
        while True:  # Lemire's rejection loop
            half, self._half = self._half, None
            if half is None:
                self.random()  # moves the cursor past the word it reads
                word = int(self._words[-1 - length_hint(self._doubles)])
                half, self._half = word & 0xFFFFFFFF, word >> 32
            m = half * n
            if m & 0xFFFFFFFF >= (1 << 32) % n:
                return np.int64(m >> 32)


def agent_rng(seed: int, player: int) -> AgentStream:
    """Per-agent substream, independent of the engine draw order."""
    return AgentStream(np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(player,))))


class Agent:
    """Uniform act/observe interface satisfied by LAFF, experts and opponents.

    Agents are constructed for a specific seat (player 1 or 2) of a specific
    game.  Each step the engine asks both seats for their signal weight,
    shows both the same state code, and then tells each seat the opponent's
    action and the two rewards, its own first.
    """

    weight = 0.0  # the signal weight, fixed unless report_weight is overridden

    def report_weight(self) -> float:
        return self.weight

    def act(self, state: int, t: int) -> int:
        """The action at step t in the state coded ``state``, whose digits,
        most significant first, are player 1's last K actions (base n1),
        player 2's last K actions (base n2), player 1's last K+1 signal bits
        and player 2's, each oldest first (see `StateLayout`)."""
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

    def mean_rewards(self):
        return float(self.r1.mean()), float(self.r2.mean())

    def columns(self) -> dict:
        """The trace CSV's columns by name, in field order, without the
        expert columns of agents that have none."""
        return {name: col for name, col in vars(self).items() if col is not None}


def _weight_error(w1: float, w2: float, t: int) -> RuntimeError:
    player, w = (2, w2) if 0.0 <= w1 <= 1.0 else (1, w1)
    return RuntimeError(f"player {player} agent reported weight {w} "
                        f"outside [0, 1] at step {t}")


def run_match(game, alg1: Agent, alg2: Agent, config: MatchConfig) -> MatchTrace:
    """Play T steps of the repeated game; identical seeds give identical traces.

    Histories start at action 0 with signal bits drawn from the seeded
    stream (weights requested once at t=0), so the first K+1 uniform draws
    fully determine the starting state.  The four digit groups of the state
    code are kept apart and each is shifted by one digit a step.
    """
    T, K = config.T, config.K
    n1, n2 = game.n1, game.n2
    layout = StateLayout(n1, n2, K)
    m1, m2, mY, _ = layout.sizes
    u1, u2, uY, _ = layout.units
    R1, R2 = game.R1.tolist(), game.R2.tolist()
    xs = _doubles(engine_rng(config.seed).bit_generator.random_raw(K + T))
    weight1, weight2 = alg1.report_weight, alg2.report_weight
    act1, act2 = alg1.act, alg2.act
    observe1, observe2 = alg1.observe, alg2.observe

    w1 = float(weight1())
    w2 = float(weight2())
    if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
        raise _weight_error(w1, w2, 0)
    Y1 = Y2 = 0
    for x in memoryview(xs)[:K]:
        Y1 = 2 * Y1 + (x < w1)
        Y2 = 2 * Y2 + (x < w2)
    A1 = A2 = 0
    high = 0  # the action digits of the code, A1 * u1 + A2 * u2

    t_col = np.arange(1, T + 1, dtype=np.int64)
    a1_col, a2_col, y1_col, y2_col = (np.empty(T, dtype=np.int64) for _ in range(4))
    # filled through memoryviews, which store a Python int as fast as a list
    a1_put, a2_put, y1_put, y2_put = map(memoryview, (a1_col, a2_col, y1_col, y2_col))

    for i, x in enumerate(memoryview(xs)[K:]):
        t = i + 1
        w1 = float(weight1())
        w2 = float(weight2())
        if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
            raise _weight_error(w1, w2, t)
        b1 = x < w1
        b2 = x < w2
        Y1 = Y1 * 2 % mY + b1
        Y2 = Y2 * 2 % mY + b2
        state = high + Y1 * uY + Y2

        a1 = act1(state, t)
        a2 = act2(state, t)
        if not 0 <= a1 < n1:
            raise RuntimeError(f"player 1 agent returned action {a1} "
                               f"outside 0..{n1 - 1} at step {t}")
        if not 0 <= a2 < n2:
            raise RuntimeError(f"player 2 agent returned action {a2} "
                               f"outside 0..{n2 - 1} at step {t}")
        r1 = R1[a1][a2]
        r2 = R2[a1][a2]
        observe1(t, a2, r1, r2)
        observe2(t, a1, r2, r1)

        a1_put[i] = a1
        a2_put[i] = a2
        y1_put[i] = b1
        y2_put[i] = b2
        A1 = A1 * n1 % m1 + a1
        A2 = A2 * n2 % m2 + a2
        high = A1 * u1 + A2 * u2

    return MatchTrace(t=t_col, a1=a1_col, a2=a2_col, y1=y1_col, y2=y2_col,
                      x=xs[K:], r1=game.R1[a1_col, a2_col], r2=game.R2[a1_col, a2_col],
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
        self.weight = float(weight)
        self._point = np.eye(n_actions)[self.action]

    def act(self, state, t):
        return self.action

    def policy_distribution(self, state):
        return self._point.copy()
