from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laff.mdp
from laff import (GAME_NAMES, BimatrixGame, EnforceParams, LeaderKit, MatchConfig,
                  builtin_game, induce_mdp, optimal_average_reward,
                  security_value)
from laff.engine import StateLayout
from laff.experts import LeaderCore
from laff.mdp import InducedMdp
from laff.opponents import bounded_memory_policy
from oracles import (compliant_policy, decode, encode, enumerate_deterministic_gains,
                     enumerate_states, induce_mdp_full, policy_average_reward,
                     random_games)

RECT = BimatrixGame("rect3x2",
                    [[0.512, 0.95], [0.144, 0.949], [0.312, 0.423]],
                    [[0.828, 0.409], [0.55, 0.028], [0.754, 0.538]])


def _point(n, a):
    d = np.zeros(n)
    d[a] = 1.0
    return d


def _copy_last_a1(state):
    """Player 2 repeats player 1's last action (2x2, K=1)."""
    return _point(2, decode(state, 2, 2, 1)[0][-1])


def test_state_enumeration_count():
    g = builtin_game("chicken")
    states = enumerate_states(g, 1)
    assert len(states) == 64
    assert len(set(states)) == 64


def test_transition_rows_sum_to_one():
    g = builtin_game("chicken")
    mdp = induce_mdp(g, lambda s: np.array([0.3, 0.7]), w1=0.4, w2=0.8, K=1)
    assert np.allclose(mdp.transition.sum(axis=2), 1.0, atol=1e-9)
    assert mdp.initial.sum() == pytest.approx(1.0)


def test_deterministic_opponent_successor_count():
    g = builtin_game("chicken")
    mdp = induce_mdp(g, lambda s: _point(2, 1), w1=0.5, w2=0.5, K=1)
    fanout = (mdp.transition > 0).sum(axis=2)
    assert fanout.max() <= 4


def test_optimal_gain_fixed_opponent():
    g = builtin_game("chicken")
    mdp = induce_mdp(g, lambda s: _point(2, 1), w1=0.0, w2=0.0, K=1)
    gain, policy = optimal_average_reward(mdp)
    assert gain == pytest.approx(0.25, abs=1e-7)


def test_optimal_gain_mixing_opponent():
    g = builtin_game("chicken")
    mdp = induce_mdp(g, lambda s: np.array([0.5, 0.5]), w1=0.0, w2=0.0, K=1)
    gain, _ = optimal_average_reward(mdp)
    assert gain == pytest.approx(0.5, abs=1e-7)


def test_single_state_mdp():
    states = [encode(((0,), (0,), (0, 0), (0, 0)), 2, 2)]
    mdp = InducedMdp(states=states, n_actions=2,
                     transition=np.ones((1, 2, 1)),
                     reward1=np.array([[0.3, 0.9]]),
                     initial=np.array([1.0]))
    gain, policy = optimal_average_reward(mdp)
    assert gain == pytest.approx(0.9)
    assert policy[0] == 1


def test_policy_gain_period_two_cycle():
    s0 = encode(((0,), (0,), (0, 0), (0, 0)), 2, 2)
    s1 = encode(((1,), (1,), (0, 0), (0, 0)), 2, 2)
    trans = np.zeros((2, 1, 2))
    trans[0, 0, 1] = 1.0
    trans[1, 0, 0] = 1.0
    mdp = InducedMdp(states=[s0, s1], n_actions=1,
                     transition=trans,
                     reward1=np.array([[0.0], [1.0]]),
                     initial=np.array([1.0, 0.0]))
    assert policy_average_reward(mdp, [0, 0]) == pytest.approx(0.5, abs=1e-9)


def test_constant_reward_game():
    g = builtin_game("chicken")
    flat = induce_mdp(g, lambda s: np.array([1.0, 0.0]), w1=0.0, w2=0.0, K=1)
    flat.reward1[:] = 0.4
    assert policy_average_reward(flat, lambda s: np.array([0.6, 0.4])) \
        == pytest.approx(0.4)


def test_leader_vs_compliant_gains():
    # enforcing the even split in Chicken pays 0.625 to both players
    g = builtin_game("chicken")
    kit = LeaderKit.build(g, 1, EnforceParams(1, 0.05))
    core = LeaderCore(kit, "ebs", np.random.default_rng(0))
    w = kit.ebs_weight
    opp = compliant_policy(kit, 1, 1, "ebs")
    mdp = induce_mdp(g, opp, w1=w, w2=w, K=1)
    reward2 = np.array([[float(g.R2[a] @ opp(s)) for a in range(g.n1)]
                        for s in mdp.states])
    g1 = policy_average_reward(mdp, core.policy_distribution)
    g2 = policy_average_reward(mdp, core.policy_distribution, reward=reward2)
    assert g1 == pytest.approx(0.625, abs=1e-9)
    assert g2 == pytest.approx(0.625, abs=1e-9)


def test_optimality_dominates_fixed_policies():
    g = builtin_game("sym_biased")
    mdp = induce_mdp(g, _copy_last_a1, w1=0.0, w2=0.0, K=1)
    gain, _ = optimal_average_reward(mdp)
    for a in (0, 1):
        assert gain >= policy_average_reward(mdp, lambda s, _a=a: _point(2, _a)) - 1e-8
    muS1, _ = security_value(g, 1)
    assert gain >= muS1 - 1e-6


def test_gain_matches_policy_enumeration():
    g = builtin_game("chicken")
    mdp = induce_mdp(g, _copy_last_a1, w1=0.0, w2=0.0, K=1)
    gain, _ = optimal_average_reward(mdp)
    assert gain == pytest.approx(max(enumerate_deterministic_gains(mdp)), abs=1e-6)


def test_optimal_gain_at_least_security_vs_leaders():
    # the maximin strategy is always available, so no opponent can push the
    # optimal gain below the security value
    from laff import MatchConfig
    from laff.opponents import bounded_memory_policy

    cfg = MatchConfig(T=1000)
    for name in ("chicken", "asym_unfair", "cyclic"):
        g = builtin_game(name)
        muS1, _ = security_value(g, 1)
        kit = LeaderKit.build(g, 1, EnforceParams(cfg.K, cfg.eps))
        for opp in ("bully", "ftft", "egal", "maximin"):
            pol, w2 = bounded_memory_policy(opp, g, cfg)
            mdp = induce_mdp(g, pol, w1=kit.ebs_weight, w2=w2, K=1)
            gain, _ = optimal_average_reward(mdp)
            assert gain >= muS1 - 1e-6, (name, opp)


MARKOV_KINDS = ("bully", "ftft", "egal", "maximin", "fixed:0", "fixed:1")


def _reachable_block(g, K, opp):
    """induce_mdp and induce_mdp_full against ``opp`` in seat 2, once the first
    is checked to be the second's reachable block bit for bit."""
    cfg = MatchConfig(T=1, K=K)
    w1 = LeaderKit.build(g, 1, EnforceParams(K, cfg.eps)).ebs_weight
    pol, w2 = bounded_memory_policy(opp, g, cfg)
    mdp = induce_mdp(g, pol, w1=w1, w2=w2, K=K)
    full = induce_mdp_full(g, pol, w1=w1, w2=w2, K=K)
    reach = full.reachable_from_initial()
    assert [decode(c, g.n1, g.n2, K) for c in mdp.states] \
        == [full.states[i] for i in reach], opp
    assert np.array_equal(mdp.transition,
                          full.transition[np.ix_(reach, range(g.n1), reach)]), opp
    assert np.array_equal(mdp.reward1, full.reward1[reach]), opp
    assert np.array_equal(mdp.initial, full.initial[reach]), opp
    assert np.allclose(mdp.transition.sum(axis=2), 1.0, rtol=0, atol=1e-12), opp
    return mdp, full


@pytest.mark.parametrize("name,K", [(n, 1) for n in GAME_NAMES]
                         + [("chicken", 2), ("rect3x2", 2)])
def test_reachable_mdp_equals_full_space_block(name, K):
    # the explored MDP is exactly the reachable block of the full-space one
    g = RECT if name == "rect3x2" else builtin_game(name)
    for opp in MARKOV_KINDS:
        mdp, full = _reachable_block(g, K, opp)
        assert optimal_average_reward(mdp)[0] == optimal_average_reward(full)[0], opp


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(random_games(), st.sampled_from((1, 2)), st.sampled_from(MARKOV_KINDS))
def test_reachable_mdp_equals_full_space_block_on_random_games(g, K, opp):
    _reachable_block(g, K, opp)


def test_multichain_fallback_two_absorbing_states():
    # two absorbing classes with different gains: the span never contracts,
    # so the stall detector hands over to sweeps that settle each state's gain
    s0 = encode(((0,), (0,), (0, 0), (0, 0)), 2, 2)
    s1 = encode(((1,), (0,), (0, 0), (0, 0)), 2, 2)
    trans = np.zeros((2, 2, 2))
    trans[0, :, 0] = 1.0
    trans[1, :, 1] = 1.0
    mdp = InducedMdp(states=[s0, s1], n_actions=2,
                     transition=trans,
                     reward1=np.array([[0.0, 0.0], [1.0, 1.0]]),
                     initial=np.array([0.5, 0.5]))
    gain, policy = optimal_average_reward(mdp)
    assert gain == pytest.approx(0.5, abs=1e-9)
    assert set(policy) == {0, 1}


def _seeded_table(g, seed, point, absorbing=False):
    """An opponent policy with one seeded row per K=1 state code of ``g``: a random
    point mass, or else a Dirichlet row.  ``absorbing``: every code whose
    opponent's last action is 1 plays 1."""
    rng = np.random.default_rng(seed)
    n = StateLayout(g.n1, g.n2, 1).n_states
    table = (np.eye(g.n2)[rng.integers(g.n2, size=n)] if point
             else rng.dirichlet(np.ones(g.n2), size=n))
    if absorbing:
        table[[decode(c, g.n1, g.n2, 1)[1][-1] == 1 for c in range(n)]] = _point(g.n2, 1)
    return table.__getitem__


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(random_games(), st.sampled_from((0.0, 1.0)), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_optimal_gain_tops_every_deterministic_policy_on_random_games(g, w2, seed, point):
    mdp = induce_mdp(g, _seeded_table(g, seed, point), w1=0.0, w2=w2, K=1)
    gain, _ = optimal_average_reward(mdp)
    assert abs(gain - max(enumerate_deterministic_gains(mdp))) <= 1e-6


def test_multichain_fallback_matches_enumeration_on_absorbing_opponents():
    # an opponent that keeps playing 1 once it has played 1 can leave closed
    # classes of different gains, which relative value iteration settles per
    # state; the returned policy must earn the gain.  The first case is a grim
    # trigger on sym_winwin (player 2 plays 0 while the newest joint action is
    # (0, 0)): after a defection the gain is 1/3, not 1, so a policy read off
    # gains pinned only at the start defects there and earns about 0
    g = builtin_game("sym_winwin")
    u1, u2 = StateLayout(2, 2, 1).units[:2]
    grim = lambda s: _point(2, int(s // u1 % 2 != 0 or s // u2 % 2 != 0))
    cases = [("grim", induce_mdp(g, grim, w1=0.0, w2=0.0, K=1))]
    for name, seed in product(GAME_NAMES, range(4)):
        g = builtin_game(name)
        cases.append(((name, seed), induce_mdp(
            g, _seeded_table(g, seed, seed % 2 == 0, absorbing=True),
            w1=0.0, w2=float(seed // 2), K=1)))
    for case, mdp in cases:
        gain, policy = optimal_average_reward(mdp)
        assert abs(gain - max(enumerate_deterministic_gains(mdp))) <= 1e-6, case
        earned = policy_average_reward(mdp, [policy[i] for i in range(mdp.n_states)])
        assert abs(earned - gain) <= 1e-8, case
    assert optimal_average_reward(cases[0][1])[0] == pytest.approx(1.0, abs=1e-9)


def test_reachable_from_initial_follows_every_action():
    # state 2 is reached only through action 1, two steps after the start in
    # state 1; state 0 leads into the reachable set but nothing leads to it
    trans = np.zeros((4, 2, 4))
    trans[0, :, 1] = 1.0
    trans[1, 0, 1] = 1.0
    trans[1, 1, 3] = 1.0
    trans[3, :, 2] = 1.0
    trans[2, :, 2] = 1.0
    mdp = InducedMdp(states=[0, 1, 2, 3], n_actions=2, transition=trans,
                     reward1=np.zeros((4, 2)), initial=np.array([0.0, 1.0, 0.0, 0.0]))
    assert mdp.reachable_from_initial().tolist() == [1, 2, 3]


def test_induced_mdp_above_the_state_budget_is_refused(monkeypatch):
    g = builtin_game("chicken")
    pol, w2 = bounded_memory_policy("ftft", g, MatchConfig(T=1, K=2))
    n = induce_mdp(g, pol, w1=0.5, w2=w2, K=2).n_states
    monkeypatch.setattr(laff.mdp, "MAX_STATES", n)
    assert induce_mdp(g, pol, w1=0.5, w2=w2, K=2).n_states == n
    monkeypatch.setattr(laff.mdp, "MAX_STATES", n - 1)
    with pytest.raises(ValueError) as err:
        induce_mdp(g, pol, w1=0.5, w2=w2, K=2)
    assert str(err.value) == f"K=2 gives the induced MDP over {n - 1} states"


def test_value_iteration_sweep_cap_raises(monkeypatch):
    # a cap reached before the span contracts, and before the stall
    # detector's first check, is an error rather than a silent gain
    monkeypatch.setattr(laff.mdp, "_MAX_SWEEPS", 3)
    g = builtin_game("chicken")
    pol, w2 = bounded_memory_policy("ftft", g, MatchConfig(T=1))
    mdp = induce_mdp(g, pol, w1=0.5, w2=w2, K=1)  # needs more than 10 sweeps
    with pytest.raises(RuntimeError, match=r"did not reach span 1e-08 within "
                                           r"3 sweeps"):
        optimal_average_reward(mdp)


@pytest.mark.parametrize("bad", [[1 / 3] * 3, [0.6, 0.6], [1.5, -0.5]],
                         ids=["wrong_shape", "sum_not_one", "negative"])
def test_policy_that_is_not_a_distribution_names_the_state_code(bad):
    uniform = np.full(2, 0.5)
    code = induce_mdp(RECT, lambda s: uniform, w1=0.5, w2=0.3, K=1).states[-1]

    def policy(s):
        return np.array(bad) if s == code else uniform

    with pytest.raises(ValueError) as err:
        induce_mdp(RECT, policy, w1=0.5, w2=0.3, K=1)
    assert str(err.value) == f"opponent policy is not a distribution at state code {code}"
