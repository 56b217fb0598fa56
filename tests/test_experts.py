import dataclasses
import math
import multiprocessing

import numpy as np
import pytest

import laff.games
from laff import EnforceParams, LeaderKit, MatchConfig, builtin_game, rq_bound
from laff.evaluation import round_robin
from laff.games import load_game
from laff.engine import (Agent, FixedActionAgent, HistoryState, agent_rng,
                         run_match)
from laff.experts import (FollowerExpert, FollowerShared, LeaderCore,
                          MaximinExpert, TabularQ)

EP = EnforceParams(1, 0.05)


def _subepoch(T):
    H = max(1, math.isqrt(T))
    return max(1, math.ceil(math.sqrt(H)))


class CompliantAgent(Agent):
    """Plays its half of the given leader's solution, keyed on the
    leader's signal bit."""

    def __init__(self, kit, which, player):
        self.player = player
        self.map = kit.solution_map(which)

    def act(self, state, t):
        bit = (state.y1 if self.player == 2 else state.y2)[-1]
        cell = self.map.cell1 if bit else self.map.cell0
        return cell.a2 if self.player == 2 else cell.a1


def test_rq_bound_values():
    assert rq_bound(1, math.exp(-1), 1, 1) == pytest.approx(1.0)
    # quadrupling tau scales by 4^(2/3) on the polynomial factor
    r1 = rq_bound(100, 0.01, 4, 2)
    r4 = rq_bound(400, 0.01, 4, 2)
    poly = 4 ** (2 / 3)
    log_ratio = (math.log(400 / 0.01) / math.log(100 / 0.01)) ** (1 / 3)
    assert r4 / r1 == pytest.approx(poly * log_ratio)
    assert rq_bound(10 ** 4, 2.5e-7, 64, 2) == pytest.approx(6785.866403362014)
    with pytest.raises(ValueError):
        rq_bound(0, 0.1, 1, 1)


def test_leader_weight_reports_alpha():
    g = builtin_game("chicken")
    kit = LeaderKit.build(g, 1, EP)
    core = LeaderCore(kit, "ebs", agent_rng(0, 1))
    assert core.weight == pytest.approx(0.5)
    assert kit.ebs_weight == pytest.approx(0.5)


def test_leader_never_punishes_with_zero_length():
    # Chicken's even split needs no punishment: deviations are self-harming
    g = builtin_game("chicken")
    kit = LeaderKit.build(g, 1, EP)
    assert kit.ebs_map.Kp == 0
    core = LeaderCore(kit, "ebs", agent_rng(0, 1))

    class AlwaysDeviate(Agent):
        player = 2

        def act(self, state, t):
            cell = kit.ebs_map.cell1 if state.y1[-1] else kit.ebs_map.cell0
            return 1 - cell.a2

    class Wrap(Agent):
        player = 1

        def report_weight(self):
            return core.weight

        def act(self, state, t):
            return core.act(state, t)

    run_match(g, Wrap(), AlwaysDeviate(), MatchConfig(T=500, seed=0))
    assert core.punish_steps == 0


def test_leader_punishment_branch_and_amnesty():
    # sym_inferior enforces (0,0) with one punishment round; the punishment
    # strategy is the pure second row
    g = builtin_game("sym_inferior")
    kit = LeaderKit.build(g, 1, EP)
    assert kit.ebs_map.Kp == 1
    assert np.allclose(kit.punish, [0.0, 1.0])
    core = LeaderCore(kit, "ebs", agent_rng(0, 1))
    deviant = HistoryState((0,), (1,), (1, 1), (1, 1))  # opponent played 1, not 0
    # startup amnesty: the first Kp steps play the target regardless
    assert core.act(deviant, 1) == 0
    assert core.punish_steps == 0
    # afterwards the same state triggers the punishment row
    assert core.act(deviant, 2) == 1
    assert core.punish_steps == 1
    compliant = HistoryState((0,), (0,), (1, 1), (1, 1))
    assert core.act(compliant, 3) == 0


def test_leader_fallback_plays_maximin():
    from laff import BimatrixGame

    g = BimatrixGame("flat2", [[0.3, 0.7], [0.2, 0.9]],
                     [[0.5, 0.5], [0.5, 0.5]])
    kit = LeaderKit.build(g, 1, EP)
    assert kit.ebs_map is None
    core = LeaderCore(kit, "ebs", agent_rng(0, 1))
    s = HistoryState((0,), (0,), (0, 0), (0, 0))
    seen = {core.act(s, t) for t in range(50)}
    support = {i for i, p in enumerate(kit.maximin) if p > 1e-9}
    assert seen <= support


def test_follower_trips_against_capped_opponent():
    # nothing a learner does against the constant second column reaches the
    # fairness level, so every seed must trip, and quickly
    g = builtin_game("chicken")
    T = 20000
    for seed in range(10):
        cfg = MatchConfig(T=T, seed=seed)
        kit = LeaderKit.build(g, 1, EP)
        f = FollowerExpert(g, cfg, kit, FollowerShared(), _subepoch(T))
        run_match(g, f, FixedActionAgent(1, 2, player=2), cfg)
        assert f.tripped, seed


def test_follower_survives_leader_copy():
    # facing the egalitarian leader itself, the average approaches the
    # fairness level, so the tripwire must stay quiet in >= 9/10 seeds
    from laff.opponents import build_agent

    g = builtin_game("chicken")
    T = 20000
    trips = 0
    for seed in range(10):
        cfg = MatchConfig(T=T, seed=seed)
        kit = LeaderKit.build(g, 1, EP)
        f = FollowerExpert(g, cfg, kit, FollowerShared(), _subepoch(T))
        run_match(g, f, build_agent("egal", g, 2, cfg), cfg)
        trips += f.tripped
    assert trips <= 1, f"{trips}/10 seeds tripped"


def test_follower_learns_best_response():
    g = builtin_game("chicken")
    T = 5000
    cfg = MatchConfig(T=T, seed=2)
    kit = LeaderKit.build(g, 1, EP)
    shared = FollowerShared()
    f = FollowerExpert(g, cfg, kit, shared, _subepoch(T))
    tr = run_match(g, f, FixedActionAgent(1, 2, player=2), cfg)
    # the greedy policy on recently visited states settles on the row
    # paying 0.25 against column 1
    dominant = {s for s, c in shared.counts.items() if sum(c) > 300}
    assert dominant
    assert all(f.q.greedy(s) == 0 for s in dominant)
    assert tr.a1[-500:].mean() < 0.15
    # the capped opponent trips the test, yet the expert keeps learning:
    # acting on the trip is the controller's job
    assert f.tripped


def test_maximin_trips_when_exploited():
    # the opponent harvesting 1.0 against the maximin row is exploitation
    g = builtin_game("sym_unfair")
    T = 20000
    for seed in range(10):
        cfg = MatchConfig(T=T, seed=seed)
        kit = LeaderKit.build(g, 1, EP)
        m = MaximinExpert(cfg, kit, _subepoch(T), agent_rng(seed, 1))
        run_match(g, m, FixedActionAgent(1, 2, player=2), cfg)
        assert m.tripped, seed


def test_maximin_tolerates_security_level_opponent():
    # an opponent earning exactly its security value is not exploiting
    g = builtin_game("asym_biased")

    class HalfHalf(Agent):
        player = 2

        def __init__(self, rng):
            self.rng = rng

        def act(self, state, t):
            return int(self.rng.random() < 0.5)

    T = 20000
    for seed in range(10):
        cfg = MatchConfig(T=T, seed=seed)
        kit = LeaderKit.build(g, 1, EP)
        m = MaximinExpert(cfg, kit, _subepoch(T), agent_rng(seed, 1))
        run_match(g, m, HalfHalf(agent_rng(seed, 2)), cfg)
        assert not m.tripped, seed


def test_tabular_q_basics():
    rates = []
    q = TabularQ(2, lambda n, t: rates.append((n, t)) or 0.5)
    s = ("s",)
    assert q.greedy(s) == 0  # optimistic tie breaks to the lowest index
    assert q.act(s, 1, action=1) == 1
    q.reward(1.0)
    # the step is settled, with its visit count and time, once s follows it
    q.act(s, 2)
    assert rates == [(1, 1)] and q.counts[s] == [0, 1]
    assert q.row(s)[1] == pytest.approx(20.0 + 0.5 * (1.0 + 0.95 * 20.0 - 20.0))


def test_new_follower_leaves_shared_tables_alone_on_first_act():
    # a follower's unsettled last step dies with it: the next follower
    # instance on the same shared tables must not apply it
    g = builtin_game("chicken")
    cfg = MatchConfig(T=300, seed=4)
    kit = LeaderKit.build(g, 1, EP)
    shared = FollowerShared()
    f = FollowerExpert(g, cfg, kit, shared, _subepoch(300))
    run_match(g, f, FixedActionAgent(1, 2, player=2), cfg)
    table = {s: list(row) for s, row in shared.table.items()}
    counts = {s: list(row) for s, row in shared.counts.items()}
    f2 = FollowerExpert(g, cfg, kit, shared, _subepoch(300))
    f2.act(next(iter(table)), 1)
    assert shared.table == table and shared.counts == counts


def test_q_estimates_decay_without_reward():
    from laff import BimatrixGame

    g = BimatrixGame("zero", [[0.0]], [[0.0]])
    cfg = MatchConfig(T=5000, seed=0)
    kit = LeaderKit.build(g, 1, EnforceParams(1, 0.05))
    shared = FollowerShared()
    f = FollowerExpert(g, cfg, kit, shared, _subepoch(5000))
    run_match(g, f, FixedActionAgent(0, 2, player=2), cfg)
    assert max(max(row) for row in shared.table.values()) < 10.0


def test_leader_empirical_matches_solution_values():
    # against a compliant opponent the empirical pair converges to (u1, u2)
    g = builtin_game("cyclic")
    kit = LeaderKit.build(g, 1, EP)
    core = LeaderCore(kit, "ebs", agent_rng(0, 1))

    class Wrap(Agent):
        player = 1

        def report_weight(self):
            return core.weight

        def act(self, state, t):
            return core.act(state, t)

    T = 10000
    tr = run_match(g, Wrap(), CompliantAgent(kit, "ebs", 2),
                   MatchConfig(T=T, seed=1))
    tol = 3 * math.sqrt(math.log(1 / 0.05) / (2 * T))
    m1, m2 = tr.mean_rewards()
    assert abs(m1 - kit.ebs.u1) < tol
    assert abs(m2 - kit.ebs.u2) < tol
    assert core.punish_steps == 0


def test_kit_is_solved_once_per_game_seat_and_params():
    g = builtin_game("chicken")
    kit = LeaderKit.build(g, 1, EP)
    assert LeaderKit.build(g, 1, EnforceParams(1, 0.05)) is kit
    for player, ep in ((2, EP), (1, EnforceParams(2, 0.05)),
                       (1, EnforceParams(1, 0.1))):
        other = LeaderKit.build(g, player, ep)
        assert other is not kit
        assert other.player == player
        assert LeaderKit.build(g, player, ep) is other


@pytest.mark.parametrize("name", ["chicken", "cyclic", "asym_biased"])
@pytest.mark.parametrize("player", [1, 2])
def test_cached_kit_equals_a_fresh_solve(name, player):
    g = load_game(name)
    LeaderKit.build(g, player, EP)
    cached = LeaderKit.build(g, player, EP)
    # no process-wide cache: another instance of the game solves its own kit
    fresh = LeaderKit.build(load_game(name), player, EP)
    assert cached is not fresh
    for f in dataclasses.fields(LeaderKit):
        x, y = getattr(cached, f.name), getattr(fresh, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def test_shared_kit_is_read_only():
    kit = LeaderKit.build(builtin_game("cyclic"), 1, EP)
    with pytest.raises(dataclasses.FrozenInstanceError):
        kit.mu_s_own = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        kit.ebs_map.weight = 0.0
    for arr in (kit.maximin, kit.punish):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_round_robin_solves_each_seat_once(monkeypatch):
    # a kit runs 7 LPs; every match on a game shares each seat's kit
    real, calls = laff.games._maximin, []

    def spy(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(laff.games, "_maximin", spy)
    games = [load_game("chicken"), load_game("cyclic")]
    round_robin(["laff", "bully", "manipulator", "egal"], games, 2,
                MatchConfig(T=60, seed=0))
    assert len(calls) == 7 * len(games) * 2


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the spy reaches workers only through fork")
def test_round_robin_workers_solve_each_seat_once(monkeypatch, tmp_path):
    # each game travels to a worker once, so --jobs 2 solves what --jobs 1 does
    log = tmp_path / "solves"
    real = LeaderKit._solve

    def spy(cls, game, player, ep):
        with open(log, "a") as f:
            f.write(f"{game.name},{player}\n")
        return real(game, player, ep)

    monkeypatch.setattr(LeaderKit, "_solve", classmethod(spy))
    solved = {}
    for jobs in (1, 2):
        log.write_text("")
        round_robin(["laff", "bully", "egal"],
                    [load_game("chicken"), load_game("cyclic")], 4,
                    MatchConfig(T=50, seed=0), jobs=jobs)
        solved[jobs] = sorted(log.read_text().split())
    assert solved[1] == ["chicken,1", "chicken,2", "cyclic,1", "cyclic,2"]
    assert solved[2] == solved[1]
