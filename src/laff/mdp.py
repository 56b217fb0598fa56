"""Average-reward MDPs induced by a Markov opponent over memory-K states.

Against an opponent whose action distribution depends only on the current
state (and whose signal weight is constant), the repeated game seen by
player 1 is an MDP.  This module builds dense transition/reward tensors
over the states reachable from the engine's start only, and solves for the
optimal gain and a gain-optimal policy (relative value iteration, with a
multichain LP fallback).  An MDP above ``MAX_STATES`` reachable states is
refused before any array is built.
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
    that case is detected and handed to the multichain linear program.
    Returns (gain, policy) where ``policy`` maps reachable state index ->
    action (argmax ties to the lowest index).
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
    last_span = np.inf
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
        if sweep % 2000 == 1999:
            if span > last_span * (1 - 1e-3):
                break  # stalled: the class is not communicating
            last_span = span
    else:
        raise RuntimeError(f"relative value iteration did not reach span "
                           f"{_SPAN_TOL} within {_MAX_SWEEPS} sweeps")
    gain, policy = _multichain_lp(P, r, init)
    return gain, {int(reach[i]): int(policy[i]) for i in range(n)}


def _multichain_lp(P, r, init):
    """Multichain average-reward LP: per-state gains g and biases h.

    minimize init'g subject to g(s) >= sum p(s'|s,a) g(s') and
    g(s) + h(s) >= r(s,a) + sum p(s'|s,a) h(s') for all (s, a).
    """
    from scipy.optimize import linprog

    n = len(P)
    eye, zero = np.eye(n), np.zeros((n, n))
    # variables (g, h); per action a, (P_a - I) g <= 0 and -g + (P_a - I) h <= -r_a
    A_ub = np.vstack([np.block([[Pa - eye, zero], [-eye, Pa - eye]])
                      for Pa in P.swapaxes(0, 1)])
    b_ub = np.concatenate([np.r_[np.zeros(n), -ra] for ra in r.T])
    res = linprog(np.r_[init, np.zeros(n)], A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * (2 * n), method="highs")
    if not res.success:
        raise RuntimeError(f"multichain gain LP failed: {res.message}")
    g = res.x[:n]
    h = res.x[n:]
    # greedy policy: improve the gain first, then the bias
    gain_q = np.einsum("iak,k->ia", P, g)
    bias_q = r + np.einsum("iak,k->ia", P, h)
    policy = np.zeros(n, dtype=int)
    for s in range(n):
        best = np.nonzero(gain_q[s] > gain_q[s].max() - 1e-10)[0]
        policy[s] = best[np.argmax(bias_q[s, best])]
    return float(init @ g), policy

