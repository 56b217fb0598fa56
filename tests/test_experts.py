import copy
import dataclasses
import math
import multiprocessing
import pickle

import numpy as np
import pytest

import laff.experts
import laff.games
from laff import (BimatrixGame, EnforceParams, LeaderKit, MatchConfig,
                  builtin_game, rq_bound, security_value)
from laff.evaluation import _match_job, check_entrants, round_robin
from laff.games import GAME_NAMES, load_game
from laff.engine import (Agent, FixedActionAgent, StateLayout, _doubles, agent_rng,
                         run_match)
from laff.controller import Laff, follower_rate, follower_trip, maximin_trip
from laff.experts import LeaderCore, MaximinPolicy, TabularQ, _sample
from oracles import (decode, encode, leader_deviated, leader_distribution,
                     solution_cells)

EP = EnforceParams(1, 0.05)


def _follower(kit):
    """LAFF's follower expert, as the controller builds it."""
    return TabularQ(kit.n_own, follower_rate, kit.ebs_weight)


def _subepoch(T):
    H = max(1, math.isqrt(T))
    return max(1, math.ceil(math.sqrt(H)))


def _follower_tripped(game, kit, trace, cfg):
    """Whether `follower_trip` fires at some subepoch boundary of a match
    that one follower played from its first step."""
    S, sub = StateLayout(game.n1, game.n2, cfg.K).n_states, _subepoch(cfg.T)
    cum = np.cumsum(trace.r1)
    return any(follower_trip(kit, tau, cum[tau - 1], cfg.T, S)
               for tau in range(sub, cfg.T + 1, sub))


def _maximin_tripped(kit, trace, cfg):
    """Whether `maximin_trip` fires at some subepoch boundary of a match that
    the maximin expert played from its first step, the opponent's first K
    rewards left out."""
    K, sub = cfg.K, _subepoch(cfg.T)
    opp_cum = np.cumsum(trace.r2[K:])
    return any(maximin_trip(kit, tau - K, opp_cum[tau - K - 1], cfg.T)
               for tau in range(sub, cfg.T + 1, sub) if tau > K)


class CompliantAgent(Agent):
    """Plays its half of the given leader's solution, keyed on the
    leader's signal bit."""

    def __init__(self, kit, which, player, K):
        self.player = player
        self.cells = solution_cells(kit, which, 3 - player)
        self.n = (kit.n_own, kit.n_opp) if player == 2 else (kit.n_opp, kit.n_own)
        self.K = K

    def act(self, state, t):
        _, _, y1, y2 = decode(state, *self.n, self.K)
        bit = (y1 if self.player == 2 else y2)[-1]
        cell = self.cells[bit]
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
    assert core.report_weight() == pytest.approx(0.5)
    assert kit.ebs_weight == pytest.approx(0.5)


def test_leader_never_punishes_with_zero_length():
    # Chicken's even split needs no punishment: deviations are self-harming
    g = builtin_game("chicken")
    kit = LeaderKit.build(g, 1, EP)
    assert kit.ebs_map.Kp == 0
    core = LeaderCore(kit, "ebs", agent_rng(0, 1))
    cells = solution_cells(kit, "ebs", 1)

    class AlwaysDeviate(Agent):
        player = 2

        def act(self, state, t):
            y1 = decode(state, 2, 2, 1)[2]
            return 1 - cells[y1[-1]].a2

    class Wrap(Agent):
        player = 1

        def report_weight(self):
            return core.report_weight()

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
    deviant = encode(((0,), (1,), (1, 1), (1, 1)), 2, 2)  # opponent played 1, not 0
    # startup amnesty: the first Kp steps play the target regardless
    assert core.act(deviant, 1) == 0
    assert core.punish_steps == 0
    # afterwards the same state triggers the punishment row
    assert core.act(deviant, 2) == 1
    assert core.punish_steps == 1
    compliant = encode(((0,), (0,), (1, 1), (1, 1)), 2, 2)
    assert core.act(compliant, 3) == 0


def test_sample_plays_the_last_action_when_the_draw_passes_every_partial_sum():
    # ten tenths add up to 1 - 2**-53 in floats, which is the largest double
    # an agent stream draws, so that draw passes every partial sum
    top = _doubles(np.array([2 ** 64 - 1], dtype=np.uint64))[0]
    assert top == 1 - 2 ** -53
    dist = np.full(10, 0.1)
    assert np.cumsum(dist)[-1] == top

    class Top:
        def random(self):
            return top

    assert _sample(dist, Top()) == 9


def test_sample_never_plays_a_zero_probability_action():
    # seat 1's punishment strategy on this 4x4 game sums to 1 - 2**-53 before
    # its last entry, 0.0, so the largest draw passes every partial sum
    g = BimatrixGame("punish4", np.array([[2, 3, 2, 1], [0, 3, 1, 3], [2, 0, 0, 2],
                                          [1, 3, 1, 1]]) / 3,
                     np.array([[1, 2, 0, 1], [3, 0, 1, 1], [1, 1, 0, 3],
                               [3, 0, 3, 1]]) / 3)
    punish = LeaderKit.build(g, 1, EP).punish
    assert punish.tolist() == [0.6, 0.19999999999999998, 0.19999999999999998, 0.0]
    top = _doubles(np.array([2 ** 64 - 1], dtype=np.uint64))[0]
    assert np.cumsum(punish)[-1] == top

    class Top:
        def random(self):
            return top

    assert _sample(punish, Top()) == 2


def test_leader_fallback_plays_maximin():
    g = BimatrixGame("flat2", [[0.3, 0.7], [0.2, 0.9]],
                     [[0.5, 0.5], [0.5, 0.5]])
    kit = LeaderKit.build(g, 1, EP)
    assert kit.ebs_map is None
    core = LeaderCore(kit, "ebs", agent_rng(0, 1))
    s = encode(((0,), (0,), (0, 0), (0, 0)), 2, 2)
    seen = [core.act(s, t) for t in range(50)]
    support = {i for i, p in enumerate(kit.maximin) if p > 1e-9}
    assert set(seen) <= support
    # the maximin policy's draws, one per step, from the same stream
    policy = MaximinPolicy(kit.maximin, agent_rng(0, 1))
    assert seen == [policy.act(s, t) for t in range(50)]
    assert core.report_weight() == 0.0
    assert np.array_equal(core.policy_distribution(s), kit.maximin)


def _rect3x2():
    rng = np.random.default_rng(np.random.SeedSequence((3, 3, 2)))
    r1, r2 = np.round(rng.random((2, 3, 2)), 3)
    return BimatrixGame("rect3x2_s3", r1, r2)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("game", [builtin_game("chicken"), _rect3x2()],
                         ids=["chicken", "rect3x2"])
def test_leader_policy_matches_the_tuple_reference(game, K):
    # every state code, both seats, both maps; on the 3x2 game the seats'
    # radixes differ, so a seat or radix mix-up shows
    codes = range(StateLayout(game.n1, game.n2, K).n_states)
    states = [decode(code, game.n1, game.n2, K) for code in codes]
    punishing = 0
    for player in (1, 2):
        kit = LeaderKit.build(game, player, EnforceParams(K, 0.05))
        for which, p in (("ebs", 0.2), ("bully", 1.0)):
            core = LeaderCore(kit, which, agent_rng(0, player), punish_prob=p)
            punishing += core.map is not None and core.map.Kp > 0
            got = np.array([core.policy_distribution(code) for code in codes])
            want = np.array([leader_distribution(core, which, player, s)
                             for s in states])
            bad = np.flatnonzero((got != want).any(axis=1))
            assert not bad.size, (player, which, states[bad[0]])
    # chicken's solutions need no punishment, the 3x2 game's seat 1 does
    assert game.name == "chicken" or punishing >= 2


@pytest.mark.parametrize("K", [1, 2])
def test_leader_play_table_equals_the_digit_loop(K):
    # every state code of the 16 built-ins and a 3x2 game, both seats, both maps
    deviating = 0
    for game in [builtin_game(name) for name in GAME_NAMES] + [_rect3x2()]:
        layout = StateLayout(game.n1, game.n2, K)
        codes = range(layout.n_states)
        for player in (1, 2):
            kit = LeaderKit.build(game, player, EnforceParams(K, 0.05))
            unit = layout.signals_unit(player)
            for which in ("ebs", "bully"):
                m = kit.solution_map(which)
                if m is None:
                    continue
                target = [cell[player - 1] for cell in solution_cells(kit, which, player)]
                want = [target[code // unit & 1] for code in codes]
                want = [~a if leader_deviated(kit, which, player, K, code) else a
                        for code, a in zip(codes, want)]
                # the table is made with the map, not on a leader's first use
                assert m.plays == tuple(want), (game.name, player, which)
                deviating += sum(a < 0 for a in want)
                # after the amnesty, act and policy_distribution follow the table
                core = LeaderCore(kit, which, agent_rng(0, player), punish_prob=0.5)
                core.steps_active = m.Kp
                point = np.eye(kit.n_own)
                for code, a in zip(codes, want):
                    punished = core.punish_steps
                    action = core.act(code, m.Kp + 1)
                    dist = core.policy_distribution(code)
                    if a >= 0:
                        assert action == a and core.punish_steps == punished
                        assert np.array_equal(dist, point[a])
                    else:
                        if core.punish_steps == punished:
                            assert action == ~a
                        else:
                            assert core.punish_steps == punished + 1
                            assert kit.punish[action] > 0
                        assert np.array_equal(dist, 0.5 * kit.punish + 0.5 * point[~a])
    assert deviating > 0


def test_follower_trips_against_capped_opponent():
    # nothing a learner does against the constant second column reaches the
    # fairness level, so every seed must trip, and quickly
    g = builtin_game("chicken")
    T = 20000
    for seed in range(10):
        cfg = MatchConfig(T=T, seed=seed)
        kit = LeaderKit.build(g, 1, EP)
        f = _follower(kit)
        tr = run_match(g, f, FixedActionAgent(1, 2, player=2), cfg)
        assert _follower_tripped(g, kit, tr, cfg), seed


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
        f = _follower(kit)
        tr = run_match(g, f, build_agent("egal", g, 2, cfg), cfg)
        trips += _follower_tripped(g, kit, tr, cfg)
    assert trips <= 1, f"{trips}/10 seeds tripped"


def test_follower_learns_best_response():
    g = builtin_game("chicken")
    T = 5000
    cfg = MatchConfig(T=T, seed=2)
    kit = LeaderKit.build(g, 1, EP)
    f = _follower(kit)
    tr = run_match(g, f, FixedActionAgent(1, 2, player=2), cfg)
    # the greedy policy on recently visited states settles on the row
    # paying 0.25 against column 1
    dominant = {s for s, c in f.counts.items() if sum(c) > 300}
    assert dominant
    assert all(f.table[s].index(max(f.table[s])) == 0 for s in dominant)
    assert tr.a1[-500:].mean() < 0.15
    # the capped opponent trips the test, yet the expert keeps learning:
    # acting on the trip is the controller's job
    assert _follower_tripped(g, kit, tr, cfg)


def test_maximin_trips_when_exploited():
    # the opponent harvesting 1.0 against the maximin row is exploitation
    g = builtin_game("sym_unfair")
    T = 20000
    for seed in range(10):
        cfg = MatchConfig(T=T, seed=seed)
        kit = LeaderKit.build(g, 1, EP)
        m = MaximinPolicy(kit.maximin, agent_rng(seed, 1), kit.ebs_weight)
        tr = run_match(g, m, FixedActionAgent(1, 2, player=2), cfg)
        assert _maximin_tripped(kit, tr, cfg), seed


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
        m = MaximinPolicy(kit.maximin, agent_rng(seed, 1), kit.ebs_weight)
        tr = run_match(g, m, HalfHalf(agent_rng(seed, 2)), cfg)
        assert not _maximin_tripped(kit, tr, cfg), seed


def test_tabular_q_basics():
    rates = []
    q = TabularQ(2, lambda n, t: rates.append((n, t)) or 0.5)
    s = 5  # any state code
    # the optimistic start ties, and a tie goes to the lowest index
    assert TabularQ(2, None).act(s, 1) == 0
    assert q.act(s, 1, action=1) == 1
    q.observe(1, 0, 1.0, 0.0)
    # the step is settled, with its visit count and time, once s follows it
    q.act(s, 2)
    assert rates == [(1, 1)] and q.counts[s] == [0, 1]
    assert q.table[s][1] == pytest.approx(20.0 + 0.5 * (1.0 + 0.95 * 20.0 - 20.0))


def test_follower_reentry_leaves_the_tables_alone_on_first_act():
    # the follower's unsettled last step dies with its slot: when LAFF hands
    # the seat back to the same follower after another expert's steps, its
    # first act must not apply it
    g = builtin_game("chicken")
    cfg = MatchConfig(T=300, seed=4)
    laff = Laff(g, 1, cfg, agent_rng(cfg.seed, 1))
    f = laff.follower
    run_match(g, f, FixedActionAgent(1, 2, player=2), cfg)  # f acts at 1..T
    table = {s: list(row) for s, row in f.table.items()}
    counts = {s: list(row) for s, row in f.counts.items()}
    s = next(iter(table))
    at_next_step = copy.deepcopy(f)
    at_next_step.act(s, cfg.T + 1)  # with no gap, the last step is settled
    assert at_next_step.counts != counts
    laff.expert_index = 3  # the egalitarian follower slot
    laff._enter_slot()
    assert laff.active is f
    f.act(s, cfg.T + 2)  # a leader slot held the seat at T + 1
    assert f.table == table and f.counts == counts


def test_q_estimates_decay_without_reward():
    g = BimatrixGame("zero", [[0.0]], [[0.0]])
    cfg = MatchConfig(T=5000, seed=0)
    kit = LeaderKit.build(g, 1, EnforceParams(1, 0.05))
    f = _follower(kit)
    run_match(g, f, FixedActionAgent(0, 2, player=2), cfg)
    assert max(max(row) for row in f.table.values()) < 10.0


def test_leader_empirical_matches_solution_values():
    # against a compliant opponent the empirical pair converges to (u1, u2)
    g = builtin_game("cyclic")
    kit = LeaderKit.build(g, 1, EP)
    core = LeaderCore(kit, "ebs", agent_rng(0, 1))

    class Wrap(Agent):
        player = 1

        def report_weight(self):
            return core.report_weight()

        def act(self, state, t):
            return core.act(state, t)

    T = 10000
    tr = run_match(g, Wrap(), CompliantAgent(kit, "ebs", 2, EP.K),
                   MatchConfig(T=T, seed=1))
    tol = 3 * math.sqrt(math.log(1 / 0.05) / (2 * T))
    m1, m2 = tr.mean_rewards()
    assert abs(m1 - kit.ebs.u1) < tol
    assert abs(m2 - kit.ebs.u2) < tol
    assert core.punish_steps == 0


def test_kit_layouts_above_the_state_budget_are_refused(monkeypatch):
    g = builtin_game("chicken")
    monkeypatch.setattr(laff.experts, "MAX_STATE_CODES", StateLayout(2, 2, 2).n_states)
    assert LeaderKit.build(g, 1, EnforceParams(2, 0.05)).ebs_map is not None
    with pytest.raises(ValueError, match="K=3 gives game 'chicken' 16384 state codes, "
                                         "above the leaders' budget of 1024"):
        LeaderKit.build(g, 2, EnforceParams(3, 0.05))


def test_kit_is_solved_once_per_game_seat_and_params():
    g = builtin_game("chicken")
    kit = LeaderKit.build(g, 1, EP)
    assert LeaderKit.build(g, 1, EnforceParams(1, 0.05)) is kit
    for player, ep in ((2, EP), (1, EnforceParams(2, 0.05)),
                       (1, EnforceParams(1, 0.1))):
        other = LeaderKit.build(g, player, ep)
        assert other is not kit
        assert g._kits[(player, ep)] is other
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
    game = builtin_game("cyclic")
    kit = LeaderKit.build(game, 1, EP)
    with pytest.raises(dataclasses.FrozenInstanceError):
        kit.mu_s_own = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        kit.ebs_map.weight = 0.0
    with pytest.raises(TypeError):
        kit.ebs_map.plays[0] = 0
    # round_robin sends each game to its worker pickled, kits included
    copy = pickle.loads(pickle.dumps(game))._kits[(1, EP)]
    for arr in (kit.maximin, kit.punish, copy.maximin, copy.punish):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert np.array_equal(copy.maximin, kit.maximin) and copy.ebs == kit.ebs
    assert copy.ebs_map == kit.ebs_map and copy.ebs_map.plays == kit.ebs_map.plays


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("name", ["chicken", "cyclic", "rect3x2"])
def test_pickled_game_carries_its_kits_and_lps(name, K):
    # as round_robin hands a game to a worker: after the entrant check built
    # every leader's kit and the maximin entrant's LPs
    game = _rect3x2() if name == "rect3x2" else builtin_game(name)
    check_entrants(["laff", "bully", "egal", "maximin"], [game],
                   MatchConfig(T=20, K=K))
    copy = pickle.loads(pickle.dumps(game))
    assert copy._kits.keys() == game._kits.keys() == {(1, EnforceParams(K, 0.05)),
                                                      (2, EnforceParams(K, 0.05))}
    assert copy._lps.keys() == game._lps.keys()
    strategies = []
    for (value, p), (got_value, q) in zip(game._lps.values(), copy._lps.values()):
        assert got_value == value and np.array_equal(q, p)
        assert not q.flags.writeable
        strategies.append(q)
    for key, kit in game._kits.items():
        got = copy._kits[key]
        # field by field: == on kits holding distinct arrays raises
        for f in dataclasses.fields(LeaderKit):
            x, y = getattr(kit, f.name), getattr(got, f.name)
            if isinstance(x, np.ndarray):
                assert np.array_equal(y, x) and not y.flags.writeable, f.name
            else:
                assert y == x, f.name
        for which in ("ebs", "bully"):
            m = kit.solution_map(which)
            assert m is None or got.solution_map(which).plays == m.plays
        # the LP cache's strategies themselves, so the copy holds each once
        assert any(got.maximin is q for q in strategies)
        assert any(got.punish is q for q in strategies)


def test_round_robin_solves_each_seat_once(lp_calls):
    # both seats' kits share the game's LPs: 4 distinct matrices (security
    # values and punishment strategies of both seats), 2 on a symmetric game
    games = [load_game("chicken"), load_game("cyclic")]
    round_robin(["laff", "bully", "manipulator", "egal"], games, 2,
                MatchConfig(T=60, seed=0))
    assert len(lp_calls) == 2 + 4


def test_maximin_opponent_reads_the_games_lps(lp_calls):
    # one security LP per distinct seat matrix, however many maximin matches
    games = [load_game("chicken"), load_game("cyclic"), load_game("asym_biased")]
    round_robin(["maximin", "fixed:0"], games, 5, MatchConfig(T=20))
    assert len(lp_calls) == 1 + 2 + 2


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


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the spy reaches workers only through fork")
def test_round_robin_workers_reuse_the_games_lps(monkeypatch, tmp_path):
    # each game travels with its LP memo, so a maximin entrant's worker
    # solves nothing the entrant check did not
    log = tmp_path / "lps"
    real = laff.games._maximin

    def spy(M):
        with open(log, "a") as f:
            f.write("lp\n")
        return real(M)

    monkeypatch.setattr(laff.games, "_maximin", spy)
    calls, data = {}, {}
    for jobs in (1, 2):
        log.write_text("")
        # fresh games, so that each pass starts with empty caches
        games = [load_game("chicken"), load_game("cyclic"),
                 load_game("asym_biased")]
        data[jobs] = round_robin(["maximin", "fixed:0"], games, 5,
                                 MatchConfig(T=20), jobs=jobs).data
        calls[jobs] = len(log.read_text().split())
    assert calls[1] == 5
    assert calls[2] == calls[1]
    assert np.array_equal(data[2], data[1])


def test_worker_lps_stay_read_only(lp_calls):
    # a maximin-only entrant list builds no kit that would share the arrays
    game = load_game("cyclic")
    round_robin(["maximin"], [game], 1, MatchConfig(T=20))
    solved = len(lp_calls)
    copy = pickle.loads(pickle.dumps(game))
    _match_job((copy, "maximin", "maximin", MatchConfig(T=20)))
    assert len(lp_calls) == solved  # the copy carries the game's LPs
    for player in (1, 2):
        assert not security_value(copy, player)[1].flags.writeable
