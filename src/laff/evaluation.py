"""Regret metrics, benchmarks, round-robin learning game, replicator dynamics."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from .bargaining import EnforceParams, bully_solution, enforceable_ebs
from .engine import MatchConfig, run_match
from .experts import LeaderKit
from .games import PAYOFF_TIE, BimatrixGame, security_value
from .mdp import induce_mdp, optimal_average_reward
from .opponents import build_agent

OPPONENT_CLASSES = ("adversarial", "follower_conditional", "follower_unconditional",
                    "bounded_memory")  # the classes `benchmark_for` knows


def play_match(game: BimatrixGame, name1: str, name2: str, config: MatchConfig):
    """Build both agents by name from the match seed and run the match."""
    a1 = build_agent(name1, game, 1, config)
    a2 = build_agent(name2, game, 2, config)
    return run_match(game, a1, a2, config)


def regret_curve(rewards: np.ndarray, benchmark: float) -> np.ndarray:
    """Cumulative regret: entry i = (i+1)*benchmark - sum of first i+1 rewards."""
    rewards = np.asarray(rewards, dtype=float)
    t = np.arange(1, len(rewards) + 1)
    return t * benchmark - np.cumsum(rewards)


def benchmark_for(game: BimatrixGame, opponent_class: str, config: MatchConfig,
                  opp_policy=None, w2: Optional[float] = None) -> float:
    """Per-step benchmark for player 1's regret against an opponent class.

    'adversarial' -> own security value; 'follower_conditional' -> own
    egalitarian value; 'follower_unconditional' -> own bully value;
    'bounded_memory' -> optimal gain of the induced MDP (requires the
    opponent's Markov policy and signal weight).
    """
    ep = EnforceParams(config.K, config.eps)
    if opponent_class == "adversarial":
        v, _ = security_value(game, 1)
        return v
    if opponent_class == "follower_conditional":
        return enforceable_ebs(game, ep).u1
    if opponent_class == "follower_unconditional":
        return bully_solution(game, ep).u1
    if opponent_class == "bounded_memory":
        if opp_policy is None or w2 is None:
            raise ValueError("bounded_memory benchmark needs the opponent's "
                             "Markov policy and signal weight")
        # the follower expert correlates on the own egalitarian weight
        w1 = LeaderKit.build(game, 1, ep).ebs_weight
        mdp = induce_mdp(game, opp_policy, w1=w1, w2=w2, K=config.K)
        gain, _ = optimal_average_reward(mdp)
        return gain
    raise KeyError(f"unknown opponent class '{opponent_class}'")


def pure_nash(m1: np.ndarray, m2: np.ndarray):
    """Pure equilibria of a bimatrix learning game; ties count.

    Cell (i, j) qualifies when m1[i, j] tops column j and m2[i, j] tops
    row i.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        raise ValueError("payoff matrices must share a shape")
    tops = ((m1 >= m1.max(axis=0) - PAYOFF_TIE)
            & (m2 >= m2.max(axis=1, keepdims=True) - PAYOFF_TIE))
    return [(int(i), int(j)) for i, j in np.argwhere(tops)]


def role_min_rewards(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Entry [i, j, ...] = algorithm i's reward against j, worst over seats.

    The leading two axes index the algorithms; trailing axes (games,
    trials) pass through.
    """
    return np.minimum(np.asarray(m1), np.swapaxes(np.asarray(m2), 0, 1))


def replicator_step(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One generation of the discrete replicator update.

    Fitness of algorithm i is the population-weighted mean of its role-worst
    rewards ``r[i]`` (a (J, J) matrix in [0, 1]).  Shares update
    multiplicatively by (1 - mean fitness + fitness), a nonnegative factor
    for rewards in [0, 1], and are renormalized to the simplex (the raw
    update does not preserve it exactly).  Stacked p (..., J) and r (..., J, J)
    step together, each exactly as it would alone.
    """
    f = (r @ p[..., None])[..., 0]
    new = p * ((1.0 - f.mean(axis=-1, keepdims=True)) + f)
    return new / new.sum(axis=-1, keepdims=True)


@dataclass
class TournamentResult:
    """Per-pair, per-game, per-trial mean rewards from a round robin."""

    names: list
    games: list
    trials: int
    data: np.ndarray  # (nA, nA, nG, trials, 2)

    HEADER = ("alg1", "alg2", "game", "trial", "m1", "m2")

    def means(self) -> tuple:
        """Learning-game bimatrix: rewards averaged over games and trials."""
        m = np.nanmean(self.data, axis=(2, 3))
        return m[:, :, 0], m[:, :, 1]

    def columns(self) -> list:
        """The columns of pair_game_trial.csv, one row per (alg1, alg2, game, trial)."""
        keys = product(self.names, self.names, self.games, range(self.trials))
        m = self.data.reshape(-1, 2)
        return [*zip(*keys), m[:, 0], m[:, 1]]

    @classmethod
    def read(cls, path) -> "TournamentResult":
        """Parse a pair_game_trial.csv; every cell must have exactly one row."""
        cells = {}
        lines = Path(path).read_text().strip().splitlines() or [""]
        header = ",".join(cls.HEADER)
        if lines[0] != header:
            raise ValueError(f"{path}:1: expected the header {header}, "
                             f"got {lines[0]!r}")
        for n, line in enumerate(lines[1:], start=2):
            try:
                a1, a2, g, k, m1, m2 = line.split(",")
                k, m1, m2 = int(k), float(m1), float(m2)
            except ValueError:
                raise ValueError(f"{path}:{n}: expected {','.join(cls.HEADER)} "
                                 f"with an integer trial, got {line!r}") from None
            if not (a1 and a2 and g):
                raise ValueError(f"{path}:{n}: alg1, alg2 and game must not be "
                                 f"empty, got {line!r}")
            if k < 0 or not (0 <= m1 <= 1 and 0 <= m2 <= 1):
                raise ValueError(f"{path}:{n}: need a trial >= 0 and m1, m2 in "
                                 f"[0, 1], got {line!r}")
            if (a1, a2, g, k) in cells:
                raise ValueError(f"{path}:{n}: a second row for {a1} vs {a2} on "
                                 f"{g}, trial {k}")
            cells[(a1, a2, g, k)] = (m1, m2)
        if not cells:
            raise ValueError(f"{path} has no data rows")
        names = list(dict.fromkeys(a for key in cells for a in key[:2]))
        games = list(dict.fromkeys(key[2] for key in cells))
        trials = range(max(key[3] for key in cells) + 1)
        try:  # the first missing key ends the walk: within len(cells) + 1 keys
            data = np.array([[[[cells[(a1, a2, g, k)] for k in trials] for g in games]
                              for a2 in names] for a1 in names])
        except KeyError as e:
            raise ValueError("{} has no row for {} vs {} on {}, trial {}"
                             .format(path, *e.args[0])) from None
        return cls(names=names, games=games, trials=len(trials), data=data)


def _match_config(config: MatchConfig, *key: int) -> MatchConfig:
    """The config of the match with indices ``key``, seeded from config.seed and key."""
    seed = np.random.SeedSequence((config.seed, *key)).generate_state(1)[0]
    return replace(config, seed=int(seed))


def _match_job(args):
    return play_match(*args).mean_rewards()


def check_entrants(names: list, games: list, config: MatchConfig) -> None:
    """Raise unless each name is an agent in each seat of each game; the
    kits solved in building them stay on the games, for the matches."""
    # the result table is keyed by names: a repeated one would merge entrants
    for kind, keys in (("algorithm", names), ("game", [g.name for g in games])):
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ValueError(f"a round robin needs distinct {kind} names; "
                                 f"'{key}' occurs more than once")
    for game, name, player in product(games, names, (1, 2)):
        build_agent(name, game, player, config)


def round_robin(algorithms, games, trials: int, config: MatchConfig,
                jobs: int = 1) -> TournamentResult:
    """All ordered algorithm pairings over all games and trials.

    For symmetric games only the ordered pairs with i <= j are played; the
    reversed cell is filled with the same numbers swapped.  Seeds derive
    deterministically from (config.seed, i, j, game, trial), so results do
    not depend on scheduling.  With ``jobs > 1`` the pool's workers take the
    matches one at a time, each with its game's kits and LPs solved already.
    """
    names = list(algorithms)
    games = list(games)
    check_entrants(names, games, config)
    nA, nG = len(names), len(games)
    data = np.full((nA, nA, nG, trials, 2), np.nan)

    sym = [game.is_symmetric() for game in games]
    keys = [(i, j, g, k) for g, i, j, k in product(*map(range, (nG, nA, nA, trials)))
            if not (sym[g] and j < i)]
    tasks = [(games[g], names[i], names[j], _match_config(config, i, j, g, k))
             for i, j, g, k in keys]

    if jobs > 1 and tasks:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_match_job, tasks))
    else:
        results = map(_match_job, tasks)

    for (i, j, g, k), (m1, m2) in zip(keys, results):
        data[i, j, g, k] = (m1, m2)
        if sym[g] and i != j:
            data[j, i, g, k] = (m2, m1)
    return TournamentResult(names=names, games=[g.name for g in games],
                            trials=trials, data=data)


def replicator_run(result: TournamentResult, generations: int, runs: int,
                   seed: int = 0) -> np.ndarray:
    """Replicator trajectories over the tournament's empirical matrices.

    Returns shares of shape (runs, generations + 1, J); each generation
    samples one trial per game with replacement and averages the sampled
    role-worst rewards over the games.  The rewards must lie in [0, 1].
    The runs advance together, each drawing its trials from its own stream.
    """
    data = result.data
    if not ((data >= 0.0) & (data <= 1.0)).all():  # NaN fails as well
        raise ValueError("replicator rewards must lie in [0, 1]")
    J, G = len(result.names), len(result.games)
    # (G, trials, J, J), so one index per game gathers every run's sample
    rmin = role_min_rewards(data[..., 0], data[..., 1]).transpose(2, 3, 0, 1).copy()
    # one call per run draws the same integers as a scalar call per game
    draws = np.empty((generations, runs, G), dtype=np.int64)
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        draws[:, run] = rng.integers(result.trials, size=(generations, G))
    out = np.empty((runs, generations + 1, J))
    out[:, 0] = 1.0 / J
    p, r = out[:, 0], np.empty((runs, J, J))
    for gen in range(generations):
        r.fill(0.0)
        for g in range(G):
            r += rmin[g, draws[gen, :, g]]
        p = out[:, gen + 1] = replicator_step(p, r / G)
    return out
