"""Brute-force reference computations used to check the solvers."""

import itertools

import numpy as np

from laff import policy_average_reward, security_value
from laff.engine import HistoryState
from laff.mdp import InducedMdp, signal_outcome_probs


def maximin_grid(M, step=1e-3):
    """Grid search max_p min_j (p'M)_j for a 2-row matrix."""
    M = np.asarray(M, dtype=float)
    assert M.shape[0] == 2, "grid oracle only handles two rows"
    ps = np.arange(0.0, 1.0 + step / 2, step)
    vals = np.minimum.reduce([ps * M[0, j] + (1 - ps) * M[1, j]
                              for j in range(M.shape[1])])
    return float(vals.max())


def bargaining_grid(game, K, eps, selfish, step=1e-4):
    """Best objective over all cell pairs and an alpha grid, under the
    enforceability inequality and both security-value floors.

    Returns (best objective value or None when the feasible set is empty).
    Objective: u1 for the selfish search, min_i(u_i - muS_i) otherwise, with
    the egalitarian feasible set additionally requiring a nonnegative score.
    """
    muS1, _ = security_value(game, 1)
    muS2, _ = security_value(game, 2)
    cells = [(i, j) for i in range(game.n1) for j in range(game.n2)]
    alphas = np.arange(0.0, 1.0 + step / 2, step)
    best = None
    for a_idx, x in enumerate(cells):
        for y in cells[a_idx:]:
            r = _dev_profit(game, {x, y})
            u1 = alphas * game.R1[x] + (1 - alphas) * game.R1[y]
            u2 = alphas * game.R2[x] + (1 - alphas) * game.R2[y]
            feas = K * u2 >= K * muS2 + r + eps - 1e-12
            feas &= (u1 >= muS1 - 1e-9) & (u2 >= muS2 - 1e-9)
            if not feas.any():
                continue
            obj = u1 if selfish else np.minimum(u1 - muS1, u2 - muS2)
            v = float(obj[feas].max())
            if best is None or v > best:
                best = v
    return best


def _dev_profit(game, X):
    best = -np.inf
    for (x1, x2) in X:
        row = game.R2[x1]
        alt = max((row[j] for j in range(game.n2) if j != x2), default=-np.inf)
        best = max(best, alt - row[x2])
    return best


def enumerate_states(game, K: int):
    """All memory-K states, in a fixed deterministic order."""
    acts1 = range(game.n1)
    acts2 = range(game.n2)
    bits = (0, 1)
    states = []
    for a1h in itertools.product(acts1, repeat=K):
        for a2h in itertools.product(acts2, repeat=K):
            for y1h in itertools.product(bits, repeat=K + 1):
                for y2h in itertools.product(bits, repeat=K + 1):
                    states.append(HistoryState(a1h, a2h, y1h, y2h))
    return states


def induce_mdp_full(game, opp_policy, w1: float, w2: float, K: int) -> InducedMdp:
    """The induced MDP over every memory-K state, reachable or not.

    Dense (S, A, S) over all (n1*n2)^K * 4^(K+1) states, so only small K.
    """
    states = enumerate_states(game, K)
    index = {s: i for i, s in enumerate(states)}
    S = len(states)
    A = game.n1
    sig = [(bits, p) for bits, p in signal_outcome_probs(w1, w2).items() if p > 0]

    transition = np.zeros((S, A, S))
    reward1 = np.zeros((S, A))
    reward2 = np.zeros((S, A))
    for i, s in enumerate(states):
        pi2 = np.asarray(opp_policy(s), dtype=float)
        if pi2.shape != (game.n2,) or abs(pi2.sum() - 1.0) > 1e-9 or np.any(pi2 < -1e-12):
            raise ValueError(f"opponent policy is not a distribution at state {s}")
        for a in range(A):
            reward1[i, a] = float(game.R1[a] @ pi2)
            reward2[i, a] = float(game.R2[a] @ pi2)
            for b, pb in enumerate(pi2):
                if pb <= 0:
                    continue
                a1h = s.a1[1:] + (a,)
                a2h = s.a2[1:] + (b,)
                for (b1, b2), ps in sig:
                    nxt = HistoryState(a1h, a2h, s.y1[1:] + (b1,), s.y2[1:] + (b2,))
                    transition[i, a, index[nxt]] += pb * ps

    # engine start: action histories all zero, signal bits drawn independently
    probs = signal_outcome_probs(w1, w2)
    initial = np.zeros(S)
    zero1 = (0,) * K
    for y1h in itertools.product((0, 1), repeat=K + 1):
        for y2h in itertools.product((0, 1), repeat=K + 1):
            p = 1.0
            for b1, b2 in zip(y1h, y2h):
                p *= probs[(b1, b2)]
                if p == 0:
                    break
            if p > 0:
                initial[index[HistoryState(zero1, (0,) * K, y1h, y2h)]] += p

    return InducedMdp(states=states, index=index, n_actions=A,
                      transition=transition, reward1=reward1, reward2=reward2,
                      initial=initial)


def enumerate_deterministic_gains(mdp: InducedMdp) -> list:
    """Gain of every deterministic Markov policy on the reachable class.

    Exponential in the number of reachable states; intended for tiny
    verification MDPs only.
    """
    reach = mdp.reachable_from_initial()
    gains = []
    for choice in itertools.product(range(mdp.n_actions), repeat=len(reach)):
        policy = {int(s): a for s, a in zip(reach, choice)}

        def pol(state, _p=policy):
            d = np.zeros(mdp.n_actions)
            d[_p.get(mdp.index[state], 0)] = 1.0
            return d

        gains.append(policy_average_reward(mdp, pol))
    return gains


def compliant_policy(kit, which: str = "ebs"):
    """Opponent policy that always plays its half of the leader's solution.

    Compliance tracks the leader's (public) signal bit.
    """
    m = kit.solution_map(which)
    if m is None:
        raise ValueError("no enforceable solution to comply with")
    opp_is_p2 = kit.player == 1
    n_opp = kit.n_opp

    def policy(state: HistoryState) -> np.ndarray:
        bit = (state.y1 if opp_is_p2 else state.y2)[-1]
        cell = m.cell1 if bit else m.cell0
        d = np.zeros(n_opp)
        d[cell.a2 if opp_is_p2 else cell.a1] = 1.0
        return d

    return policy


def second_half_slope(curve) -> float:
    """Least-squares slope of a cumulative regret curve over its second half."""
    n = len(curve)
    if n < 4:
        raise ValueError("curve too short for a slope estimate")
    ts = np.arange(1, n + 1)[n // 2:]
    ys = curve[n // 2:]
    return float(np.polyfit(ts, ys, 1)[0])


def replicator_run_reference(result, generations: int, runs: int, seed: int = 0):
    """Replicator trajectories computed generation by generation.

    Each generation draws one trial per game, takes each sampled bimatrix's
    role-worst rewards min(m1, m2') afresh, averages them over the games and
    applies the multiplicative update: the straightforward algorithm that
    `laff.replicator_run` must reproduce bit for bit.
    """
    J, G = len(result.names), len(result.games)
    out = np.zeros((runs, generations + 1, J))
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        p = np.full(J, 1.0 / J)
        out[run, 0] = p
        for gen in range(1, generations + 1):
            sampled = []
            for g in range(G):
                k = int(rng.integers(result.trials))
                sampled.append((result.data[:, :, g, k, 0],
                                result.data[:, :, g, k, 1]))
            r = np.zeros((J, J))
            for m1, m2 in sampled:
                r += np.minimum(m1, m2.T)
            r /= G
            f = r @ p
            fbar = f.mean()
            new = p * ((1.0 - fbar) + f)
            p = new / new.sum()
            out[run, gen] = p
    return out
