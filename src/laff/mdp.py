"""Average-reward MDPs induced by a Markov opponent over memory-K states.

Against an opponent whose action distribution depends only on the current
state (and whose signal weight is constant), the repeated game seen by
player 1 is an MDP.  This module builds dense transition/reward tensors
over the states reachable from the engine's start only, and solves for the
optimal gain and a gain-optimal policy (relative value iteration, with a
multichain LP fallback).  K=3 then takes well under a second on most
built-in games; at K=4 the tensors still need 0.5-3.5 GB on train_mixed and
asym_biased against bully, ftft or egal (62 GB on asym_secondbest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import StateLayout

_SPAN_TOL = 1e-8
_MAX_SWEEPS = 10 ** 6


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
        frontier = list(np.nonzero(self.initial > 0)[0])
        seen = set(frontier)
        any_next = self.transition.sum(axis=1) > 0  # (S, S) reach under some a
        while frontier:
            s = frontier.pop()
            for s2 in np.nonzero(any_next[s])[0]:
                if s2 not in seen:
                    seen.add(s2)
                    frontier.append(int(s2))
        return np.array(sorted(seen), dtype=int)


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

    explored = {}  # reachable state -> (opponent distribution, [(a, next, prob)])
    seen = set(start)
    frontier = sorted(start)
    while frontier:
        s = frontier.pop()
        pi2 = np.asarray(opp_policy(s), dtype=float)
        if pi2.shape != (n2,) or abs(pi2.sum() - 1.0) > 1e-9 or np.any(pi2 < -1e-12):
            raise ValueError(f"opponent policy is not a distribution at state code {s}")
        out = []
        explored[s] = (pi2, out)
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
    reward1 = np.zeros((S, A))
    for i, s in enumerate(states):
        pi2, out = explored[s]
        for a in range(A):
            reward1[i, a] = float(game.R1[a] @ pi2)
        for a, nxt, p in out:
            transition[i, a, index[nxt]] += p
    initial = np.zeros(S)
    for s, p in start.items():
        initial[index[s]] += p

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

    n, A, _ = P.shape
    # variables: g (n), h (n)
    c = np.concatenate([init, np.zeros(n)])
    rows = []
    rhs = []
    for a in range(A):
        # (P[:, a] - I) g <= 0
        block = np.hstack([P[:, a, :] - np.eye(n), np.zeros((n, n))])
        rows.append(block)
        rhs.append(np.zeros(n))
        # -g + (P[:, a] - I) h <= -r[:, a]
        block2 = np.hstack([-np.eye(n), P[:, a, :] - np.eye(n)])
        rows.append(block2)
        rhs.append(-r[:, a])
    res = linprog(c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
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

