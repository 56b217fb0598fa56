import copy
import itertools

import numpy as np
import pytest

from laff import (BimatrixGame, EnforceParams, MatchConfig, builtin_game,
                  enforceable_ebs, play_match, run_match)
from laff.engine import FixedActionAgent
from laff.opponents import (AGENT_NAMES, BOUNDED_MEMORY, EpsGreedyQAgent,
                            FictitiousPlayAgent, bounded_memory_policy,
                            build_agent)
from oracles import encode, enumerate_states

CFG = MatchConfig(T=1000, seed=0)


def test_bully_as_player_two_enforces_its_cell():
    g = builtin_game("chicken")
    tr = play_match(g, "fixed:0", "bully", MatchConfig(T=2000, seed=1))
    assert (tr.r2 == 1.0).all()
    assert (tr.r1 == 0.25).all()


def test_bully_no_punishment_against_compliant():
    g = builtin_game("sym_inferior")
    cfg = MatchConfig(T=2000, seed=3)
    b = build_agent("bully", g, 2, cfg)
    # its solution mixes (0,0) and (1,0): column 0 is compliant at any bit
    run_match(g, FixedActionAgent(0, 2, player=1, weight=b.report_weight()), b, cfg)
    assert b.punish_steps == 0


def test_ftft_zero_probability_never_punishes():
    g = builtin_game("sym_inferior")
    cfg = MatchConfig(T=3000, seed=2)
    f = build_agent("ftft", g, 2, cfg, params={"p": 0.0})
    run_match(g, FixedActionAgent(1, 2, player=1), f, cfg)
    assert f.punish_steps == 0


def test_ftft_full_probability_matches_egalitarian_stream():
    g = builtin_game("sym_inferior")
    outs = []
    for name, params in (("ftft", {"p": 1.0}), ("egal", None)):
        cfg = MatchConfig(T=3000, seed=9)
        tr = run_match(g, build_agent("qlearn", g, 1, cfg),
                       build_agent(name, g, 2, cfg, params=params), cfg)
        outs.append(tr.a2)
    assert np.array_equal(outs[0], outs[1])


def test_ftft_punishes_at_rate_p():
    # against a permanently deviating opponent each eligible step is
    # punished independently with probability 0.2
    g = builtin_game("sym_inferior")
    T = 10000
    cfg = MatchConfig(T=T, seed=5)
    f = build_agent("ftft", g, 2, cfg, params={"p": 0.2})
    run_match(g, FixedActionAgent(1, 2, player=1), f, cfg)
    eligible = T - 1  # amnesty covers only the very first step (Kp = 1)
    rate = f.punish_steps / eligible
    sigma = (0.2 * 0.8 / eligible) ** 0.5
    assert abs(rate - 0.2) < 4 * sigma


def test_qlearn_schedules():
    assert EpsGreedyQAgent.learning_rate(0) == pytest.approx(0.5)
    assert EpsGreedyQAgent.explore_prob(0) == pytest.approx(0.1)
    assert EpsGreedyQAgent.explore_prob(10 ** 6) < 1e-3


def test_qlearn_follows_bully():
    g = builtin_game("chicken")
    tr = play_match(g, "qlearn", "bully", MatchConfig(T=20000, seed=4))
    assert tr.r2[-5000:].mean() > 0.9
    assert abs(tr.r1[-5000:].mean() - 0.25) < 0.05


def test_fictitious_play_best_responds():
    g = builtin_game("chicken")
    fp = FictitiousPlayAgent(g, 2)
    s = None
    # empty history: best response to the uniform prior is column 1
    assert fp.act(s, 1) == 1
    cfg = MatchConfig(T=3000, seed=0)
    tr = play_match(g, "fixed:1", "fp", cfg)
    # against the constant second row, column 0 earns 0.25 over 0
    assert (tr.a2[-100:] == 0).all()


def test_fictitious_play_tiebreak_and_determinism():
    flat = BimatrixGame("flat", [[0.5, 0.5], [0.5, 0.5]],
                        [[0.5, 0.5], [0.5, 0.5]])
    fp = FictitiousPlayAgent(flat, 2)
    assert fp.act(None, 1) == 0
    g = builtin_game("asym_unfair")
    t1 = play_match(g, "qlearn", "fp", MatchConfig(T=500, seed=8))
    t2 = play_match(g, "qlearn", "fp", MatchConfig(T=500, seed=8))
    assert np.array_equal(t1.a2, t2.a2)


def test_fictitious_play_gives_exact_ties_to_action_zero():
    # fp_tie's uniform prior: (1/3 + 0.1 + 0.1) / 3 = (1/3 + 0.2 + 0) / 3
    fp_tie = BimatrixGame("fp_tie", [[0.7, 0.2], [0.7, 0.1], [0, 0]],
                          [[1 / 3, 1 / 3], [0.1, 0.2], [0.1, 0]])
    assert FictitiousPlayAgent(fp_tie, 2).act(None, 1) == 0
    # asym_biased in seat 2 after counts (1, 3): 3 * 2/3 = 1 + 3 * 1/3,
    # though the float sums need not agree, in any order of observation
    g = builtin_game("asym_biased")
    for history in set(itertools.permutations((0, 1, 1, 1))):
        fp = FictitiousPlayAgent(g, 2)
        for t, opp_action in enumerate(history, 1):
            fp.observe(t, opp_action, 0.0, 0.0)
        assert fp.act(None, len(history) + 1) == 0, history


def test_manipulator_stays_leader_against_compliant():
    g = builtin_game("chicken")
    cfg = MatchConfig(T=4000, seed=1)
    m = build_agent("manipulator", g, 1, cfg)
    # its bully cell asks the opponent for column 0
    run_match(g, m, FixedActionAgent(0, 2, player=2), cfg)
    assert m.phase == "leader"
    assert not m.override


def test_manipulator_maximin_override():
    g = builtin_game("chicken")
    cfg = MatchConfig(T=4000, seed=1)
    m = build_agent("manipulator", g, 1, cfg)
    tr = run_match(g, m, FixedActionAgent(1, 2, player=2), cfg)
    # leading row 1 against the constant column 1 starves it below the
    # security floor; the maximin override then keeps pulling the average
    # back toward that floor
    assert m.override_steps > 0
    assert abs(tr.r1.mean() - (0.25 - m.eps_prime)) < 0.05


def test_manipulator_rl_arm_learns_only_from_its_own_steps():
    g = builtin_game("chicken")
    m = build_agent("manipulator", g, 1, MatchConfig(T=4000, seed=1))
    m.phase = m.arm = "rl"  # as if it had switched to the RL arm at t = 0
    m.t_switch, m.leader_avg = 0, 0.0
    rl = m.arms["rl"]
    m.act(0, 1)  # the RL arm plays step 1
    m.observe(1, 0, 0.1, 0.9)
    # an average of 0.1 is below the security floor 0.25 - eps', so the
    # maximin override plays step 2 while the RL arm stays the playing arm
    assert m.override and m.arm == "rl"
    at_step2 = copy.deepcopy(rl)
    at_step2.act(0, 2)  # had the arm played step 2, it would settle step 1
    assert at_step2.counts
    table = {s: list(row) for s, row in rl.table.items()}
    m.act(0, 2)
    m.observe(2, 0, 0.9, 0.9)
    assert m.override_steps == 1 and not m.override
    # the arm plays step 3 and drops step 1 unsettled: it never credits that
    # step with the state after the gap
    m.act(0, 3)
    assert m.override_steps == 1
    assert rl.table == table and rl.counts == {}


@pytest.mark.parametrize("game, opp, seed, arm", [
    ("asym_biased", "qlearn", 0, "leader"),
    ("train_mixed", "laff", 1, "rl"),
], ids=["leader", "rl"])
def test_manipulator_locks_the_arm_with_the_better_average(game, opp, seed, arm):
    g = builtin_game(game)
    cfg = MatchConfig(T=400, seed=seed)
    m = build_agent("manipulator", g, 1, cfg, {"eps_prime": 0.0, "p_switch": 0.5})
    locked_at, observe = [], m.observe

    def spy(t, *rest):
        observe(t, *rest)
        if m.phase == "locked" and not locked_at:
            locked_at.append(t)

    m.observe = spy
    tr = run_match(g, m, build_agent(opp, g, 2, cfg), cfg)
    # a lock at the end of the first audition means a nonstationary opponent,
    # so the averages decided it rather than the stationary rule
    assert locked_at == [m.t_switch + m.probe]
    leader = tr.r1[:m.t_switch].mean()              # steps 1..t_switch
    rl = tr.r1[m.t_switch:locked_at[0]].mean()      # the RL arm's audition
    assert abs(leader - rl) > 0.1
    assert m.arm == arm == ("leader" if leader >= rl else "rl")


def test_manipulator_tests_the_opponent_only_with_two_windows_of_actions():
    # the test runs at t > window + probe >= 2 * window steps, so it reads
    # two full windows at every horizon; from T = 3 on, every horizon reaches it
    horizons = [*range(1, 80), 200, 999, 2000]
    seen = []
    for name in ("chicken", "asym_biased", "train_mixed"):
        g = builtin_game(name)
        for T in horizons:
            for seed in range(3):
                cfg = MatchConfig(T=T, seed=seed)
                m = build_agent("manipulator", g, 1, cfg, {"p_switch": 1})

                def spy(m=m, test=m._tv_nonstationary, T=T):
                    seen.append((T, len(m.opp_actions), m.window))
                    return test()

                m._tv_nonstationary = spy
                run_match(g, m, build_agent("qlearn", g, 2, cfg), cfg)
    assert {T for T, _, _ in seen} == set(horizons) - {1, 2}
    assert all(n >= 2 * window for _, n, window in seen)


def test_manipulator_punished_by_laff():
    g = builtin_game("sym_unfair")
    mu_e2 = enforceable_ebs(g, EnforceParams(1, 0.05)).u2
    means = []
    for seed in range(2):
        tr = play_match(g, "laff", "manipulator", MatchConfig(T=200000, seed=seed))
        means.append(tr.r2.mean())
    assert all(m < mu_e2 for m in means)


def test_all_agents_honor_contract():
    g = builtin_game("asym_secondbest")
    for name in AGENT_NAMES:
        cfg = MatchConfig(T=300, seed=6)
        tr = play_match(g, name, name, cfg)
        assert tr.a1.min() >= 0 and tr.a1.max() < g.n1
        assert tr.a2.min() >= 0 and tr.a2.max() < g.n2


def test_fixed_action_parsing_and_unknown_agent():
    g = builtin_game("chicken")
    a = build_agent("fixed:1", g, 1, CFG)
    assert a.action == 1
    with pytest.raises(KeyError):
        build_agent("nope", g, 1, CFG)


def test_bounded_memory_policies_are_distributions():
    g = builtin_game("cyclic")
    for name in ("bully", "ftft", "egal", "maximin", "fixed:0"):
        pol, w = bounded_memory_policy(name, g, CFG)
        assert 0.0 <= w <= 1.0
        for s in enumerate_states(g, CFG.K)[:32]:
            d = pol(encode(s, g.n1, g.n2))
            assert d.shape == (g.n2,)
            assert abs(d.sum() - 1.0) < 1e-9 and (d >= -1e-12).all()


def test_bounded_memory_kinds_are_the_agents_with_a_markov_policy():
    assert BOUNDED_MEMORY == ("bully", "ftft", "egal", "maximin")
    g = builtin_game("chicken")
    for name in AGENT_NAMES:
        markov = hasattr(build_agent(name, g, 2, CFG), "policy_distribution")
        assert markov == (name in BOUNDED_MEMORY), name


def test_leader_weight_constancy():
    g = builtin_game("chicken")
    cfg = MatchConfig(T=100, seed=0)
    b = build_agent("bully", g, 2, cfg)
    w0 = b.report_weight()
    tr = run_match(g, FixedActionAgent(0, 2, player=1), b, cfg)
    assert b.report_weight() == w0


@pytest.mark.parametrize("name, params, message", [
    ("manipulator", {"eps_prime": float("inf")},
     "parameter 'eps_prime' of agent 'manipulator' must be finite and >= 0, got inf"),
    ("manipulator", {"eps_prime": -0.1},
     "parameter 'eps_prime' of agent 'manipulator' must be finite and >= 0, got -0.1"),
    ("manipulator", {"p_switch": 2},
     "parameter 'p_switch' of agent 'manipulator' must lie in [0, 1], got 2"),
    ("ftft", {"p": "0.4"},
     "parameter 'p' of agent 'ftft' must lie in [0, 1], got '0.4'"),
    ("qlearn", {"p": 0.4}, "agent 'qlearn' has no parameter 'p' (accepted: none)"),
    ("bully", [0.4], "parameters of agent 'bully' must be a JSON object"),
    ("fixed:x", None, "agent 'fixed:x' needs an integer action, as in fixed:0"),
    # JSON true/false arrive as bools, which Python would take for 1 and 0
    ("ftft", {"p": True}, "parameter 'p' of agent 'ftft' must lie in [0, 1], got True"),
    ("fixed:0", {"weight": False},
     "parameter 'weight' of agent 'fixed:0' must lie in [0, 1], got False"),
    # int() accepts other spellings of an action, which would give one agent
    # several names in a tournament
    *[(f"fixed:{a}", None, f"agent 'fixed:{a}' needs an integer action, as in fixed:0")
      for a in (" 1", "+1", "01", "1_0", "1 ", "")],
])
def test_build_agent_rejects_bad_params(name, params, message):
    g = builtin_game("chicken")
    with pytest.raises(ValueError) as err:
        build_agent(name, g, 2, CFG, params=params)
    assert str(err.value) == message


def test_build_agent_accepts_declared_params():
    g = builtin_game("chicken")
    m = build_agent("manipulator", g, 1, CFG,
                    params={"eps_prime": 0.0, "p_switch": 1})
    assert (m.eps_prime, m.p_switch) == (0.0, 1.0)
    assert build_agent("ftft", g, 2, CFG, params={"p": 1}).punish_prob == 1.0
    fixed = build_agent("fixed:1", g, 2, CFG, params={"weight": 1})
    assert fixed.report_weight() == 1.0
