import numpy as np
import pytest

from laff import (BimatrixGame, EnforceParams, GAME_NAMES, Laff, MatchConfig,
                  build_agent, builtin_game, bully_solution, enforceable_ebs,
                  play_match, run_match, security_value)
from laff.engine import agent_rng
from laff.experts import FollowerExpert, LeaderCore, MaximinExpert, maximin_trip
from oracles import encode


def _mk(game, T=10000, seed=0):
    cfg = MatchConfig(T=T, seed=seed)
    return Laff(game, 1, cfg, agent_rng(seed, 1)), cfg


def test_targets_chicken():
    laff, _ = _mk(builtin_game("chicken"))
    assert laff.targets == pytest.approx([1.0, 1.0, 0.625, 0.625, 0.25])
    assert laff.kit.ebs.u1 == pytest.approx(0.625)


def test_epoch_arithmetic():
    laff, _ = _mk(builtin_game("chicken"), T=10000)
    assert laff.H == 100
    assert laff.subepoch == 10


def test_fallback_targets_collapse_to_security():
    g = BimatrixGame("flat2", [[0.3, 0.7], [0.2, 0.9]],
                     [[0.5, 0.5], [0.5, 0.5]])
    laff, _ = _mk(g)
    muS1, _ = security_value(g, 1)
    assert laff.targets == pytest.approx([muS1] * 5)


def _feed(laff, rewards, start=1):
    """Push synthetic steps through the controller."""
    s = encode(((0,), (0,), (0, 0), (0, 0)), 2, 2)
    for t, r in enumerate(rewards, start=start):
        laff.act(s, t)
        laff.observe(t, 0, r, r)


def test_no_switch_when_epoch_meets_target():
    laff, _ = _mk(builtin_game("chicken"), T=10000)
    _feed(laff, [1.0] * (3 * laff.H))
    assert laff.expert_index == 1


def test_switches_only_at_epoch_boundaries():
    laff, _ = _mk(builtin_game("chicken"), T=10000)
    _feed(laff, [0.0] * (5 * laff.H))
    # starved of reward, each expert survives one grace epoch and is
    # dropped at the second boundary after activation
    assert laff.expert_index == 3
    assert laff.switch_times == [2 * laff.H, 4 * laff.H]
    assert all(t % laff.H == 0 for t in laff.switch_times)


def test_tripped_expert_hands_seat_to_egalitarian_leader():
    laff, _ = _mk(builtin_game("chicken"), T=10000)
    H, sub = laff.H, laff.subepoch

    def seat_is_egalitarian_leader():
        return (isinstance(laff.active, LeaderCore)
                and laff.active.map is laff.kit.ebs_map)

    # starved of reward, the first follower trips at its first subepoch
    # boundary; the controller swaps the leader in before the next step
    _feed(laff, [0.0] * (sub - 1))
    assert isinstance(laff.active, FollowerExpert)
    _feed(laff, [0.0], start=sub)
    assert laff.follower_tripped
    assert seat_is_egalitarian_leader() and laff.expert_index == 1
    first = laff.active
    # slot 2 (bully leader) follows at 2H; slot 3, a follower slot, starts
    # as a fresh egalitarian leader at 4H
    _feed(laff, [0.0] * (4 * H - sub), start=sub + 1)
    assert laff.expert_index == 3 and laff.switch_times == [2 * H, 4 * H]
    assert seat_is_egalitarian_leader() and laff.active is not first
    # down to maximin at 13H; an opponent harvesting 1.0 trips it
    _feed(laff, [0.0] * (9 * H), start=4 * H + 1)
    assert laff.switch_times[-1] == 13 * H
    assert laff.expert_index == 6 and isinstance(laff.active, MaximinExpert)
    t = 13 * H
    while isinstance(laff.active, MaximinExpert) and t < 15 * H:
        t += 1
        _feed(laff, [1.0], start=t)
    assert seat_is_egalitarian_leader() and laff.expert_index == 6
    assert t < 15 * H


def test_maximin_tripwire_skips_the_opponents_first_K_rewards():
    K = 2
    laff = Laff(builtin_game("chicken"), 1, MatchConfig(T=100, K=K),
                agent_rng(0, 1))
    s = encode(((0,) * K, (0,) * K, (0,) * (K + 1), (0,) * (K + 1)), 2, 2)
    t = 0
    while laff.expert_index < 6:  # starved of reward, down to maximin
        t += 1
        laff.act(s, t)
        laff.observe(t, 0, 0.0, 0.0)
    # the opponent earns 1 from the slot's first step, the seat 0; the
    # controller must add only the opponent's rewards after the first K
    r_opp = np.ones(laff.config.T)

    def first_trip(opp_cum, skip):
        return next(tau for tau in range(laff.subepoch, len(r_opp) + 1,
                                         laff.subepoch)
                    if tau > K and maximin_trip(laff.kit, tau - K,
                                                opp_cum[tau - skip - 1],
                                                laff.config.T))

    expected = first_trip(np.cumsum(r_opp[K:]), K)
    assert first_trip(np.cumsum(r_opp), 0) < expected  # the sums differ here
    for tau in range(1, expected + 1):
        assert isinstance(laff.active, MaximinExpert), tau
        laff.act(s, t + tau)
        laff.observe(t + tau, 0, 0.0, r_opp[tau - 1])
    assert isinstance(laff.active, LeaderCore)
    assert laff.active.map is laff.kit.ebs_map


class _SlotRecorder(Laff):
    """LAFF noting its schedule slot before each act."""

    def __init__(self, *args):
        super().__init__(*args)
        self.acted = []

    def act(self, state, t):
        self.acted.append(self.expert_index)
        return super().act(state, t)


def test_expert_index_monotone_in_real_match():
    g = builtin_game("sym_unfair")
    cfg = MatchConfig(T=20000, seed=1)
    laff = _SlotRecorder(g, 1, cfg, agent_rng(cfg.seed, 1))
    tr = run_match(g, laff, build_agent("bully", g, 2, cfg), cfg)
    # the column is the slot that acted, also at the steps that switched
    assert len(laff.switch_times) >= 2
    assert tr.expert1.tolist() == laff.acted
    idx = tr.expert1
    assert (np.diff(idx) >= 0).all()
    assert idx.max() <= 6
    assert len(np.unique(idx)) - 1 <= 5  # at most five switches


def test_target_monotonicity_all_games():
    for name in GAME_NAMES:
        g = builtin_game(name)
        ep = EnforceParams(1, 0.05)
        muS1, _ = security_value(g, 1)
        b = bully_solution(g, ep).u1
        e = enforceable_ebs(g, ep).u1
        assert b >= e - 1e-9 >= muS1 - 2e-9, name


def test_laff_bullies_unconditional_follower():
    # a pure Q-learner ends up following LAFF's selfish solution in Chicken
    g = builtin_game("chicken")
    hits = 0
    for seed in range(10):
        tr = play_match(g, "laff", "qlearn", MatchConfig(T=200000, seed=seed))
        hits += tr.r1.mean() >= 0.8
    assert hits >= 8, f"only {hits}/10 seeds reached 0.8"


def test_laff_self_play_reaches_even_split():
    g = builtin_game("chicken")
    for seed in range(5):
        tr = play_match(g, "laff", "laff", MatchConfig(T=200000, seed=seed))
        m1, m2 = tr.mean_rewards()
        assert abs(m1 - 0.625) < 0.1, seed
        assert abs(m2 - 0.625) < 0.1, seed
