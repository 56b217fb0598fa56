"""Average-reward MDPs induced by a Markov opponent over memory-K states.

Against an opponent whose action distribution depends only on the current
state (and whose signal weight is constant), the repeated game seen by
player 1 is an MDP.  This module builds dense transition/reward tensors
over the states reachable from the engine's start only, and solves for the
optimal gain and a gain-optimal policy by relative value iteration, which
also settles per-state gains where the reachable class is not
communicating.  An MDP above ``MAX_STATES`` reachable states is refused
before any array is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import StateLayout

_SPAN_TOL = 1e-8
_MAX_SWEEPS = 10 ** 6
# Most reachable states an induced MDP may have.  Its dense (S, A, S) tensor takes
# 8*A*S**2 bytes: 430 MB for asym_secondbest at K=3 (5,184 states, the most of any
# built-in game at K=3), 576 MB at the budget with 2 actions, 62 GB at K=4 there.
MAX_STATES = 6000


def signal_outcome_probs(w1: float, w2: float):
    """Joint law of (y1, y2) under the shared uniform draw."""
    p11 = min(w1, w2)
    return {
        (1, 1): p11,
        (1, 0): w1 - p11,
        (0, 1): w2 - p11,
        (0, 0): 1.0 - max(w1, w2),
    }


@dataclass
class InducedMdp:
    """Player 1's decision process against a fixed Markov opponent.

    Built by ``induce_mdp``, every state is reachable from ``initial``.
    """

    states: list             # engine state codes, ascending
    n_actions: int
    transition: np.ndarray   # (S, A, S)
    reward1: np.ndarray      # (S, A) expected player-1 reward
    initial: np.ndarray      # (S,) distribution over starting states

    @property
    def n_states(self) -> int:
        return len(self.states)

    def reachable_from_initial(self) -> np.ndarray:
        """Indices reachable from the initial distribution under any policy."""
        step = self.transition.any(axis=1)  # (S, S): reach under some action
        reach, size = self.initial > 0, 0
        while reach.sum() > size:  # until a pass adds no state
            size = reach.sum()
            reach |= step[reach].any(axis=0)
        return np.nonzero(reach)[0]


def induce_mdp(game, opp_policy: Callable, w1: float, w2: float, K: int) -> InducedMdp:
    """Build the MDP for player 1 against ``opp_policy``.

    ``opp_policy(state) -> array of len n2`` gives the opponent's action
    distribution at an engine state code; it is called, and checked to be a
    distribution, once per reachable state.  States are explored forward
    from the support of the engine's start distribution under every
    player-1 action, and listed in ascending code order.  Transitions shift
    the action digits and refresh the signal bits with the four joint
    outcomes implied by the shared draw.  Rewards are the expected stage
    rewards of the current joint action.
    """
    sig = [(bits, p) for bits, p in signal_outcome_probs(w1, w2).items() if p > 0]
    A, n2 = game.n1, game.n2
    successor = StateLayout(A, n2, K).successor

    # engine start: action histories all zero, K+1 signal draws shifted in
    start = {0: 1.0}
    for _ in range(K + 1):
        start = {successor(s, 0, 0, b1, b2): p * ps
                 for s, p in start.items() for (b1, b2), ps in sig}

    explored = {}  # reachable state -> (expected rewards by a, [(a, next, prob)])
    seen = set(start)
    frontier = sorted(start)
    while frontier:
        if len(seen) > MAX_STATES:
            raise ValueError(f"K={K} gives the induced MDP over {MAX_STATES} states")
        s = frontier.pop()
        pi2 = np.asarray(opp_policy(s), dtype=float)
        if pi2.shape != (n2,) or abs(pi2.sum() - 1.0) > 1e-9 or np.any(pi2 < -1e-12):
            raise ValueError(f"opponent policy is not a distribution at state code {s}")
        out = []
        explored[s] = ([game.R1[a] @ pi2 for a in range(A)], out)
        for a in range(A):
            for b, pb in enumerate(pi2):
                if pb <= 0:
                    continue
                for (b1, b2), ps in sig:
                    nxt = successor(s, a, b, b1, b2)
                    out.append((a, nxt, pb * ps))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)

    states = sorted(explored)
    index = {s: i for i, s in enumerate(states)}
    S = len(states)
    transition = np.zeros((S, A, S))
    for i, s in enumerate(states):
        for a, nxt, p in explored[s][1]:
            transition[i, a, index[nxt]] += p
    reward1 = np.array([explored[s][0] for s in states])
    initial = np.zeros(S)
    initial[[index[s] for s in start]] = list(start.values())

    return InducedMdp(states=states, n_actions=A, transition=transition,
                      reward1=reward1, initial=initial)


def optimal_average_reward(mdp: InducedMdp):
    """Optimal gain from the initial state and a gain-optimal policy.

    Relative value iteration on the class reachable from the initial
    distribution, with the standard self-loop transformation so periodic
    chains still converge.  If the reachable class is not communicating the
    span never contracts (different sub-chains support different gains);
    once that stall is detected the sweeps go on until every state's
    increment, its gain g, settles.  The gain is then init @ g, and each
    state plays the action of largest P_a g (within 1e-10), then largest
    value (Puterman 1994, section 9.4).  Returns (gain, policy) where
    ``policy`` maps reachable state index -> action (argmax ties to the
    lowest index).
    """
    reach = mdp.reachable_from_initial()
    P = mdp.transition
    if len(reach) < mdp.n_states:
        P = P[np.ix_(reach, range(mdp.n_actions), reach)]
    r = mdp.reward1[reach]
    init = mdp.initial[reach]
    init = init / init.sum()
    n = len(reach)

    tau = 0.5  # aperiodicity transform: P~ = (1-tau) I + tau P, same gain
    h = np.zeros(n)
    last_span, settling = np.inf, None
    for sweep in range(_MAX_SWEEPS):
        q = r + tau * np.einsum("ijk,k->ij", P, h) + (1 - tau) * h[:, None]
        v = q.max(axis=1)
        diff = v - h
        span = diff.max() - diff.min()
        h = v - v[0]
        if span < _SPAN_TOL:
            gain = 0.5 * (diff.max() + diff.min())
            policy = q.argmax(axis=1)
            return float(gain), {int(reach[i]): int(policy[i]) for i in range(n)}
        if settling is not None:
            if np.abs(diff - settling).max() <= _SPAN_TOL:
                break  # every state's gain has settled
            settling = diff
        elif sweep % 2000 == 1999:
            if span > last_span * (1 - 1e-3):
                settling = diff  # stalled: the class is not communicating
            last_span = span
    else:
        raise RuntimeError(f"relative value iteration did not reach span "
                           f"{_SPAN_TOL} within {_MAX_SWEEPS} sweeps")
    gain_q = np.einsum("iak,k->ia", P, diff)
    tied = gain_q > gain_q.max(axis=1, keepdims=True) - 1e-10
    policy = np.where(tied, q, -np.inf).argmax(axis=1)
    return float(init @ diff), {int(reach[i]): int(policy[i]) for i in range(n)}
