"""Brute-force reference computations used to check the solvers."""

import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from laff import security_value
from laff.cli import _fmt
from laff.engine import StateLayout
from laff.games import _TOL
from laff.mdp import InducedMdp, signal_outcome_probs


def maximin_grid(M, step=1e-3):
    """Grid search max_p min_j (p'M)_j for a 2-row matrix."""
    M = np.asarray(M, dtype=float)
    assert M.shape[0] == 2, "grid oracle only handles two rows"
    ps = np.arange(0.0, 1.0 + step / 2, step)
    vals = np.minimum.reduce([ps * M[0, j] + (1 - ps) * M[1, j]
                              for j in range(M.shape[1])])
    return float(vals.max())


def _pure_row(M):
    """The best pure row (lowest index) of M: its value and its strategy."""
    best = int(np.argmax(M.min(axis=1)))
    p = np.zeros(M.shape[0])
    p[best] = 1.0
    return float(M[best].min()), p


def maximin_lp(M):
    """`games._maximin` as it was before the pure-saddle shortcut and the
    exact kernel: HiGHS on every matrix, its value replaced by the best
    pure row (lowest index) when that row is within `_TOL` of it."""
    M = np.asarray(M, dtype=float)
    m, n = M.shape
    # variables (p_1..p_m, v); maximize v s.t. p'M >= v, p on the simplex
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-M.T, np.ones((n, 1))])
    b_ub = np.zeros(n)
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, 1.0)] * m + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"maximin LP failed: {res.message}")
    value, p = _pure_row(M)
    if value < float(res.x[-1]) - _TOL:
        value = float(res.x[-1])
        p = np.clip(res.x[:m], 0.0, None)
        p /= p.sum()
    p.setflags(write=False)
    return value, p


def _solve_exact(A, b):
    """x with A x = b for a square matrix A of Fractions, None if A is singular."""
    rows = [list(r) + [c] for r, c in zip(A, b)]
    k = len(rows)
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][-1] / rows[i][i] for i in range(k)]


def maximin_exact(M):
    """`games._maximin` by support enumeration in exact arithmetic (Shapley &
    Snow), for matrices up to 4x4.

    Every vertex (p, v) of {p >= 0, sum p = 1, p'M >= v} solves a square
    system: p zero off a row set S, p'M_j = v on a column set T, |S| = |T|.
    The square systems are enumerated smallest first (then S, then T in
    lexicographic order) over the Fraction values of the float entries; the
    nonsingular ones whose p is nonnegative and guarantees v against every
    column are the vertices, and those with the largest v the optimal ones.

    Returns (value, p, determined).  As in `_maximin`, the best pure row
    (lowest index) is returned when it is within `_TOL` of the optimum;
    otherwise the first optimal vertex, each number rounded once.
    `determined` is True when that rule picks the pure row or the optimal
    strategy is unique, so that `_maximin` must return exactly this p.
    """
    M = np.asarray(M, dtype=float)
    m, n = M.shape
    assert m <= 4 and n <= 4, "support enumeration grows as C(m+n, m)"
    F = [[Fraction(x) for x in row] for row in M.tolist()]
    vertices = []
    for k in range(1, min(m, n) + 1):
        for S in itertools.combinations(range(m), k):
            for T in itertools.combinations(range(n), k):
                # unknowns p_S and v: p_S'M_{S,j} - v = 0 for j in T, sum p_S = 1
                A = [[F[i][j] for i in S] + [Fraction(-1)] for j in T]
                x = _solve_exact(A + [[Fraction(1)] * k + [Fraction(0)]],
                                 [Fraction(0)] * k + [Fraction(1)])
                if x is None or min(x[:k]) < 0:
                    continue
                p = [Fraction(0)] * m
                for i, q in zip(S, x[:k]):
                    p[i] = q
                if all(sum(p[i] * F[i][j] for i in range(m)) >= x[k] for j in range(n)):
                    vertices.append((x[k], tuple(p)))
    best = max(v for v, _ in vertices)
    optimal = [p for v, p in vertices if v == best]
    value, p = _pure_row(M)
    if value >= float(best) - _TOL:
        return value, p, True
    return float(best), np.array([float(q) for q in optimal[0]]), len(set(optimal)) == 1


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


def encode(state, n1: int, n2: int) -> int:
    """The engine code of a state given as digit tuples (a1, a2, y1, y2),
    oldest first, worked out digit by digit: the reference for
    `laff.engine.StateLayout`."""
    code = 0
    for digits, base in zip(state, (n1, n2, 2, 2)):
        for d in digits:
            code = code * base + d
    return code


def decode(code: int, n1: int, n2: int, K: int) -> tuple:
    """The digit tuples (a1, a2, y1, y2) of a memory-K state code."""
    parts = []
    for base, length in ((2, K + 1), (2, K + 1), (n2, K), (n1, K)):
        digits = []
        for _ in range(length):
            code, d = divmod(code, base)
            digits.append(d)
        parts.append(tuple(reversed(digits)))
    y2, y1, a2, a1 = parts
    return a1, a2, y1, y2


def enumerate_states(game, K: int):
    """All memory-K states as digit tuples (a1, a2, y1, y2), in tuple order."""
    return list(itertools.product(itertools.product(range(game.n1), repeat=K),
                                  itertools.product(range(game.n2), repeat=K),
                                  itertools.product((0, 1), repeat=K + 1),
                                  itertools.product((0, 1), repeat=K + 1)))


def induce_mdp_full(game, opp_policy, w1: float, w2: float, K: int) -> InducedMdp:
    """The induced MDP over every memory-K state, reachable or not.

    Dense (S, A, S) over all (n1*n2)^K * 4^(K+1) states, so only small K.
    The states are digit tuples, shifted as tuples; ``opp_policy`` is shown
    each state's engine code.
    """
    states = enumerate_states(game, K)
    index = {s: i for i, s in enumerate(states)}
    S = len(states)
    A = game.n1
    sig = [(bits, p) for bits, p in signal_outcome_probs(w1, w2).items() if p > 0]

    transition = np.zeros((S, A, S))
    reward1 = np.zeros((S, A))
    for i, s in enumerate(states):
        pi2 = np.asarray(opp_policy(encode(s, game.n1, game.n2)), dtype=float)
        if pi2.shape != (game.n2,) or abs(pi2.sum() - 1.0) > 1e-9 or np.any(pi2 < -1e-12):
            raise ValueError(f"opponent policy is not a distribution at state {s}")
        a1, a2, y1, y2 = s
        for a in range(A):
            reward1[i, a] = float(game.R1[a] @ pi2)
            for b, pb in enumerate(pi2):
                if pb <= 0:
                    continue
                a1h = a1[1:] + (a,)
                a2h = a2[1:] + (b,)
                for (b1, b2), ps in sig:
                    nxt = (a1h, a2h, y1[1:] + (b1,), y2[1:] + (b2,))
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
                initial[index[(zero1, (0,) * K, y1h, y2h)]] += p

    return InducedMdp(states=states, n_actions=A, transition=transition,
                      reward1=reward1, initial=initial)


def policy_average_reward(mdp: InducedMdp, policy, reward=None) -> float:
    """Long-run average reward of a fixed (possibly mixed) Markov policy.

    ``policy`` is either a sequence of actions by state index or a callable
    ``state -> distribution over player-1 actions``.  ``reward`` is an
    (S, A) table to average, player 1's ``mdp.reward1`` by default.  The
    gain is taken from the match's initial distribution by iterating the
    state distribution on the self-loop-transformed chain.
    """
    S, A = mdp.n_states, mdp.n_actions
    if reward is None:
        reward = mdp.reward1

    def dist_at(i):
        s = mdp.states[i]
        if callable(policy):
            d = np.asarray(policy(s), dtype=float)
        else:
            d = np.zeros(A)
            d[int(policy[i])] = 1.0
        return d

    P_pol = np.zeros((S, S))
    r_pol = np.zeros(S)
    for i in range(S):
        d = dist_at(i)
        P_pol[i] = d @ mdp.transition[i]
        r_pol[i] = d @ reward[i]

    tau = 0.5
    P_pol = (1 - tau) * np.eye(S) + tau * P_pol
    pi = mdp.initial.copy()
    for _ in range(10 ** 6):
        nxt = pi @ P_pol
        if np.abs(nxt - pi).sum() < 1e-12:
            return float(nxt @ r_pol)
        pi = nxt
    raise RuntimeError("policy chain distribution did not converge")


def enumerate_deterministic_gains(mdp: InducedMdp) -> list:
    """Gain of every deterministic Markov policy on the reachable class.

    Exponential in the number of reachable states; intended for tiny
    verification MDPs only.
    """
    reach = mdp.reachable_from_initial()
    gains = []
    for choice in itertools.product(range(mdp.n_actions), repeat=len(reach)):
        policy = np.zeros(mdp.n_states, dtype=int)  # action 0 off the class
        policy[reach] = choice
        gains.append(policy_average_reward(mdp, policy))
    return gains


def compliant_policy(kit, player: int, K: int, which: str = "ebs"):
    """Opponent policy that always plays its half of the solution of the
    leader in seat ``player``, on memory-K states.

    Compliance tracks the leader's (public) signal bit, read off the state
    code.
    """
    m = kit.solution_map(which)
    if m is None:
        raise ValueError("no enforceable solution to comply with")
    opp_is_p2 = player == 1
    n1, n2 = (kit.n_own, kit.n_opp) if opp_is_p2 else (kit.n_opp, kit.n_own)

    def policy(state: int) -> np.ndarray:
        _, _, y1, y2 = decode(state, n1, n2, K)
        bit = (y1 if opp_is_p2 else y2)[-1]
        cell = m.cell1 if bit else m.cell0
        d = np.zeros(kit.n_opp)
        d[cell.a2 if opp_is_p2 else cell.a1] = 1.0
        return d

    return policy


def leader_distribution(core, player: int, state) -> np.ndarray:
    """`LeaderCore.policy_distribution` of a leader in seat ``player``,
    worked out on a state's digit tuples.

    The seat's current signal bit picks the target cell.  The opponent has
    deviated when, at any of the last Kp steps, its action was not its half
    of the cell that the seat's signal bit of that step picked.
    """
    kit, m = core.kit, core.map
    if m is None:
        return kit.maximin.copy()
    own, opp = (0, 1) if player == 1 else (1, 0)
    a1, a2, y1, y2 = state
    own_bits, opp_actions = (y1, y2)[own], (a1, a2)[opp]
    cells = (m.cell0, m.cell1)
    point = np.zeros(kit.n_own)
    point[cells[own_bits[-1]][own]] = 1.0
    if any(opp_actions[-k] != cells[own_bits[-k - 1]][opp]
           for k in range(1, m.Kp + 1)):
        return core.punish_prob * kit.punish + (1 - core.punish_prob) * point
    return point


def leader_deviated(kit, which, player: int, K: int, state) -> bool:
    """Whether the opponent left the expected cell of the ``which`` leader in
    seat ``player`` in the last Kp steps of a memory-K state, each step
    judged by the seat's own signal bit of that step: `LeaderCore`'s
    per-step digit loop before the maps' play tables."""
    m = kit.solution_map(which)
    n = (kit.n_own, kit.n_opp) if player == 1 else (kit.n_opp, kit.n_own)
    layout = StateLayout(*n, K)
    expected = (m.cell0[2 - player], m.cell1[2 - player])
    bits = state // layout.signals_unit(player)
    opp_actions = state // layout.actions_unit(3 - player)
    for _ in range(m.Kp):
        bits >>= 1
        opp_actions, last = divmod(opp_actions, kit.n_opp)
        if last != expected[bits & 1]:
            return True
    return False


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


def write_csv_rows(path, header, rows):
    """`cli.write_csv` as it was before it took columns: row by row, each
    cell through `cli._fmt`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
