import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from laff import (MatchConfig, benchmark_for, builtin_game, play_match,
                  pure_nash, regret_curve, replicator_run, replicator_step,
                  round_robin)
from laff.evaluation import TournamentResult, role_min_rewards
from oracles import replicator_run_reference

# the published learning-game table (row player reward, column player reward)
ALGS = ["S++", "Manipulator", "M-Qubed", "Bully", "Q-Learning", "LAFF",
        "FTFT", "FP"]
M1 = np.array([
    [0.75, 0.73, 0.73, 0.65, 0.82, 0.71, 0.70, 0.72],
    [0.87, 0.76, 0.77, 0.65, 0.89, 0.70, 0.71, 0.76],
    [0.88, 0.68, 0.80, 0.65, 0.79, 0.76, 0.78, 0.62],
    [0.86, 0.83, 0.85, 0.48, 0.91, 0.61, 0.72, 0.76],
    [0.82, 0.73, 0.79, 0.68, 0.83, 0.71, 0.81, 0.64],
    [0.87, 0.71, 0.74, 0.55, 0.90, 0.77, 0.80, 0.75],
    [0.64, 0.49, 0.59, 0.60, 0.59, 0.61, 0.80, 0.46],
    [0.70, 0.66, 0.66, 0.63, 0.69, 0.61, 0.71, 0.68],
])
M2 = np.array([
    [0.76, 0.80, 0.81, 0.77, 0.76, 0.80, 0.68, 0.55],
    [0.68, 0.71, 0.65, 0.77, 0.67, 0.65, 0.60, 0.55],
    [0.68, 0.68, 0.74, 0.80, 0.75, 0.73, 0.65, 0.56],
    [0.61, 0.60, 0.61, 0.44, 0.63, 0.49, 0.55, 0.56],
    [0.77, 0.83, 0.67, 0.85, 0.74, 0.84, 0.67, 0.56],
    [0.65, 0.66, 0.72, 0.61, 0.66, 0.74, 0.70, 0.57],
    [0.70, 0.71, 0.76, 0.71, 0.78, 0.78, 0.75, 0.72],
    [0.73, 0.74, 0.55, 0.73, 0.57, 0.71, 0.60, 0.55],
])


def test_benchmark_dispatch():
    g = builtin_game("chicken")
    cfg = MatchConfig(T=1000)
    assert benchmark_for(g, "adversarial", cfg) == pytest.approx(0.25)
    assert benchmark_for(g, "follower_conditional", cfg) == pytest.approx(0.625)
    assert benchmark_for(g, "follower_unconditional", cfg) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        benchmark_for(g, "bounded_memory", cfg)
    with pytest.raises(KeyError):
        benchmark_for(g, "martian", cfg)


def test_regret_curve_shape():
    curve = regret_curve(np.array([0.5, 1.0, 0.0]), 0.625)
    assert np.allclose(curve, [0.125, -0.25, 0.375])
    inc = np.diff(np.concatenate([[0.0], curve]))
    assert ((inc >= 0.625 - 1.0 - 1e-12) & (inc <= 0.625 + 1e-12)).all()
    assert len(regret_curve(np.array([]), 0.5)) == 0


def test_exploiter_regret_bounded_for_compliant_partner():
    # a compliant opponent of the egalitarian leader keeps its regret under
    # the K'+1 + 3*sqrt(t log(T/d)/2) envelope
    g = builtin_game("chicken")
    T = 20000
    tr = play_match(g, "egal", "egal", MatchConfig(T=T, seed=0))
    curve = regret_curve(tr.r2, 0.625)  # player 2 against its egalitarian value
    ts = np.arange(1, T + 1)
    envelope = 0 + 1 + 3 * np.sqrt(ts * math.log(T / 0.05) / 2)
    assert (curve <= envelope).all()


def test_pure_nash_on_published_table():
    cells = {(ALGS[i], ALGS[j]) for i, j in pure_nash(M1, M2)}
    assert cells == {("Bully", "Q-Learning"), ("Q-Learning", "Bully"),
                     ("LAFF", "LAFF")}


def test_pure_nash_degenerate():
    ones = np.full((2, 2), 0.3)
    assert len(pure_nash(ones, ones)) == 4
    assert pure_nash(np.array([[1.0]]), np.array([[0.0]])) == [(0, 0)]


def test_pure_nash_rejects_matrices_of_different_shapes():
    with pytest.raises(ValueError, match="payoff matrices must share a shape"):
        pure_nash(np.ones((2, 2)), np.ones((2, 3)))


def test_pure_nash_affine_invariance():
    rng = np.random.default_rng(0)
    a = rng.random((4, 4))
    b = rng.random((4, 4))
    base = pure_nash(a, b)
    assert pure_nash(2.5 * a + 0.3, b) == base
    assert pure_nash(a, 0.7 * b - 0.1) == base


def test_replicator_fixed_points():
    flat = np.full((3, 3), 0.5)
    p = np.array([0.2, 0.3, 0.5])
    assert np.allclose(replicator_step(p, flat), p, atol=1e-12)

    pure = np.array([0.0, 1.0, 0.0])
    rng = np.random.default_rng(1)
    r = role_min_rewards(rng.random((3, 3)), rng.random((3, 3)))
    assert np.allclose(replicator_step(pure, r), pure, atol=1e-12)


def test_replicator_preserves_simplex():
    rng = np.random.default_rng(2)
    p = np.full(4, 0.25)
    for _ in range(500):
        mats = [(rng.random((4, 4)), rng.random((4, 4))) for _ in range(3)]
        p = replicator_step(p, sum(role_min_rewards(*m) for m in mats) / 3)
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p >= -1e-12).all()


def test_replicator_growth_ordering_shift_invariant():
    # shifting every fitness by a constant must not change which algorithm
    # grows the fastest
    rng = np.random.default_rng(3)
    m1 = rng.random((3, 3))
    m2 = rng.random((3, 3))
    p = np.array([0.2, 0.5, 0.3])
    base = replicator_step(p, role_min_rewards(m1, m2)) / p
    shifted = replicator_step(p, role_min_rewards(m1 + 0.2, m2 + 0.2)) / p
    assert np.argmax(base) == np.argmax(shifted)


def _tournament(data):
    J, _, G, trials, _ = data.shape
    return TournamentResult(names=[f"a{i}" for i in range(J)],
                            games=[f"g{g}" for g in range(G)],
                            trials=trials, data=data)


@st.composite
def _tournaments(draw):
    shape = (draw(st.integers(1, 5)),) * 2 + (draw(st.integers(1, 4)),
                                              draw(st.integers(1, 3)), 2)
    return _tournament(draw(arrays(np.float64, shape,
                                   elements=st.floats(0.0, 1.0))))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_tournaments(), st.integers(0, 30), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_replicator_run_matches_per_generation_reference(result, generations,
                                                         runs, seed):
    shares = replicator_run(result, generations, runs, seed=seed)
    want = replicator_run_reference(result, generations, runs, seed=seed)
    assert np.array_equal(shares, want)
    assert (shares >= 0).all()
    assert np.all(np.abs(shares.sum(axis=2) - 1.0) < 1e-9)


@pytest.mark.parametrize("J", range(1, 6))
def test_replicator_step_on_a_stack_equals_each_row_alone(J):
    rng = np.random.default_rng(J)
    p = rng.random((40, J))
    p /= p.sum(axis=1, keepdims=True)
    r = rng.random((40, J, J))
    stacked = replicator_step(p, r)
    for row in range(40):
        assert np.array_equal(stacked[row], replicator_step(p[row], r[row]))


def test_replicator_run_matches_reference_at_the_benchmark_shape():
    # the shape of the tournament pipeline's replicator: 4 entrants, 11
    # games, 2 trials, 200 generations, 40 runs
    data = np.random.default_rng(14).random((4, 4, 11, 2, 2))
    shares = replicator_run(_tournament(data), 200, 40, seed=7)
    assert np.array_equal(shares, replicator_run_reference(_tournament(data),
                                                           200, 40, seed=7))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_one_integers_call_draws_what_scalar_calls_draw(n):
    # replicator_run draws a run's trials with one call; the reference draws
    # them one at a time from the same stream
    seed = np.random.SeedSequence((3, n))
    block = np.random.default_rng(seed).integers(n, size=(25, 11))
    rng = np.random.default_rng(seed)
    scalars = [int(rng.integers(n)) for _ in range(25 * 11)]
    assert block.ravel().tolist() == scalars, (
        f"numpy's Generator.integers({n}, size=...) no longer draws the same "
        "integers as repeated scalar calls; replicator_run relies on it")


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_replicator_run_rejects_rewards_outside_unit_interval(bad):
    data = np.full((2, 2, 1, 1, 2), 0.5)
    data[0, 1, 0, 0, 1] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        replicator_run(_tournament(data), generations=3, runs=1)


def test_role_min_rewards():
    m1 = np.array([[0.9, 0.1], [0.5, 0.6]])
    m2 = np.array([[0.2, 0.4], [0.3, 0.7]])
    # row i of the result is min(m1[i, :], m2[:, i]')
    want = np.array([[0.2, 0.1], [0.4, 0.6]])
    assert np.allclose(role_min_rewards(m1, m2), want)


def test_round_robin_small():
    g = builtin_game("chicken")  # symmetric: reversed cells are copied
    cfg = MatchConfig(T=200, seed=0)
    res = round_robin(["fixed:0", "fixed:1"], [g], trials=1, config=cfg)
    assert res.data.shape == (2, 2, 1, 1, 2)
    assert not np.isnan(res.data).any()
    m1, m2 = res.means()
    assert m1[0, 1] == pytest.approx(g.R1[0, 1])
    assert m1[1, 0] == pytest.approx(m2[0, 1])  # symmetric copy convention
    # deterministic agents: another trial count gives the same means
    res2 = round_robin(["fixed:0", "fixed:1"], [g], trials=2, config=cfg)
    n1, _ = res2.means()
    assert np.allclose(m1, n1)


def test_round_robin_asymmetric_runs_both_orders():
    g = builtin_game("asym_biased")
    res = round_robin(["fixed:0", "fixed:1"], [g], trials=1,
                      config=MatchConfig(T=50, seed=0))
    m1, _ = res.means()
    assert m1[0, 1] == pytest.approx(g.R1[0, 1])
    assert m1[1, 0] == pytest.approx(g.R1[1, 0])


def test_round_robin_starts_one_worker_per_chunk(monkeypatch):
    # a fork-based pool starts all max_workers processes at the first submit,
    # so there must be no more workers than matches; the fake pool starts none
    import concurrent.futures

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):  # the default chunk size: one match at a time
            pools[-1].append(len(items))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = MatchConfig(T=20, seed=0)
    names = ["fixed:0", "fixed:1"]
    three = ["cyclic", "chicken", "asym_biased"]  # 8 + 6 + 8 matches at 2 trials
    for games, jobs in ((["cyclic"], 64), (three, 7), (three, 2)):
        games = [builtin_game(g) for g in games]
        pooled = round_robin(names, games, trials=2, config=cfg, jobs=jobs)
        serial = round_robin(names, games, trials=2, config=cfg)
        assert np.array_equal(pooled.data, serial.data)
    # min(jobs, matches) workers
    assert pools == [[8, 8], [7, 22], [2, 22]]
    # no matches, no pool
    assert round_robin([], [builtin_game("cyclic")], 2, cfg, jobs=2).data.size == 0
    assert len(pools) == 3


def test_replicator_run_trajectories():
    data = np.zeros((2, 2, 1, 1, 2))
    # algorithm 0 strictly dominates in both seats
    data[0, 0, 0, 0] = (0.9, 0.9)
    data[0, 1, 0, 0] = (0.9, 0.1)
    data[1, 0, 0, 0] = (0.1, 0.9)
    data[1, 1, 0, 0] = (0.1, 0.1)
    res = TournamentResult(names=["a", "b"], games=["g"], trials=1, data=data)
    shares = replicator_run(res, generations=200, runs=3, seed=0)
    assert shares.shape == (3, 201, 2)
    assert (shares[:, -1, 0] > 0.99).all()
