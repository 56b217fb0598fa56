import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laff.engine
import laff.opponents
from laff import (BimatrixGame, MatchConfig, build_agent, builtin_game, play_match,
                  run_match)
from laff.engine import (Agent, AgentStream, FixedActionAgent, StateLayout,
                         agent_rng, engine_rng)
from oracles import decode, encode, enumerate_states

SIZES = st.integers(1, 3)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_state_codes_number_the_states_in_tuple_order(K):
    # codes are 0 .. S-1 in the order of the digit tuples, and decode inverts
    for n1, n2 in itertools.product((1, 2, 3), (1, 2, 3)):
        g = BimatrixGame("sizes", np.zeros((n1, n2)), np.zeros((n1, n2)))
        states = enumerate_states(g, K)
        assert len(states) == StateLayout(n1, n2, K).n_states
        assert [encode(s, n1, n2) for s in states] == list(range(len(states)))
        assert [decode(c, n1, n2, K) for c in range(len(states))] == states


@pytest.mark.parametrize("K", [1, 2, 3])
def test_layout_successor_shifts_each_digit_group(K):
    layout = StateLayout(3, 2, K)
    g = BimatrixGame("rect", np.zeros((3, 2)), np.zeros((3, 2)))
    for code, (a1h, a2h, y1h, y2h) in enumerate(enumerate_states(g, K)):
        a1, a2, b1, b2 = code % 3, code // 3 % 2, code // 6 % 2, code // 12 % 2
        shifted = (a1h[1:] + (a1,), a2h[1:] + (a2,), y1h[1:] + (b1,), y2h[1:] + (b2,))
        assert layout.successor(code, a1, a2, b1, b2) == encode(shifted, 3, 2)
    # each group's newest digit sits at its unit
    for g, (a1, a2, b1, b2) in enumerate(np.eye(4, dtype=int).tolist()):
        assert layout.successor(0, a1, a2, b1, b2) == layout.units[g]


def test_draw_signals():
    # each step's bits threshold the shared draw at the reported weights
    g = builtin_game("chicken")
    for w1, w2 in ((0.5, 0.5), (0.5, 1.0), (0.0, 0.0), (1.0, 0.0), (0.3, 0.7)):
        tr = run_match(g, FixedActionAgent(0, 2, player=1, weight=w1),
                       FixedActionAgent(1, 2, player=2, weight=w2),
                       MatchConfig(T=400, seed=3))
        for y, w in ((tr.y1, w1), (tr.y2, w2)):
            assert np.array_equal(y, tr.x < w)
            if w in (0.0, 1.0):  # a weight of 0 or 1 fixes the bit
                assert (y == w).all()


def test_state_space_size():
    # (n1*n2)^K * 2^(2K+2) codes
    assert StateLayout(2, 2, 1).n_states == 64
    assert StateLayout(2, 2, 2).n_states == 16 * 64
    assert StateLayout(3, 2, 2).n_states == 36 * 64


def test_fixed_vs_fixed_stationary():
    g = builtin_game("chicken")
    tr = play_match(g, "fixed:0", "fixed:1", MatchConfig(T=50, seed=4))
    assert (tr.a1 == 0).all() and (tr.a2 == 1).all()
    assert (tr.r1 == g.R1[0, 1]).all()
    assert (tr.r2 == g.R2[0, 1]).all()


def test_reward_consistency():
    g = builtin_game("asym_biased")
    tr = play_match(g, "qlearn", "qlearn", MatchConfig(T=500, seed=7))
    for a1, a2, r1, r2 in zip(tr.a1, tr.a2, tr.r1, tr.r2):
        assert r1 == g.R1[a1, a2]
        assert r2 == g.R2[a1, a2]


def test_seed_determinism():
    g = builtin_game("chicken")
    cfg = MatchConfig(T=2000, seed=11)
    t1 = play_match(g, "laff", "qlearn", cfg)
    t2 = play_match(g, "laff", "qlearn", cfg)
    for col in ("a1", "a2", "y1", "y2", "x", "r1", "r2", "expert1"):
        assert np.array_equal(getattr(t1, col), getattr(t2, col)), col
    t3 = play_match(g, "laff", "qlearn", MatchConfig(T=2000, seed=12))
    assert not np.array_equal(t1.x, t3.x)


def test_leader_self_play_hits_egalitarian_values():
    g = builtin_game("chicken")
    tr = play_match(g, "egal", "egal", MatchConfig(T=10000, seed=3))
    m1, m2 = tr.mean_rewards()
    assert abs(m1 - 0.625) < 0.02
    assert abs(m2 - 0.625) < 0.02


def test_signal_coupling():
    g = builtin_game("chicken")
    tr = play_match(g, "egal", "egal", MatchConfig(T=300, seed=0))
    # both leaders report the same weight, so the bits coincide
    assert np.array_equal(tr.y1, tr.y2)


class _StateSpy(Agent):
    def __init__(self):
        self.states = []
        self.observed = []

    def act(self, state, t):
        self.states.append(state)
        return 0

    def observe(self, t, opp_action, r_own, r_opp):
        self.observed.append((t, opp_action, r_own, r_opp))


def test_history_window():
    g = builtin_game("chicken")
    spy = _StateSpy()
    cfg = MatchConfig(T=30, K=2, seed=5)
    tr = run_match(g, spy, FixedActionAgent(1, 2, player=2), cfg)
    K = cfg.K
    for t in range(K, cfg.T):              # state seen at step t+1 (0-based t)
        a1, a2, y1, y2 = decode(spy.states[t], g.n1, g.n2, K)
        assert a1 == tuple(tr.a1[t - K:t])
        assert a2 == tuple(tr.a2[t - K:t])
        assert len(y1) == K + 1 and len(y2) == K + 1
        assert y1[-1] == tr.y1[t]


class _RandomSpy(Agent):
    """Records the state code and plays a uniform random action."""

    def __init__(self, n, weight, rng):
        self.n, self.weight, self.rng = n, weight, rng
        self.states = []

    def report_weight(self):
        return self.weight

    def act(self, state, t):
        self.states.append(state)
        return int(self.rng.integers(self.n))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(SIZES, st.integers(0, 10 ** 6), st.sampled_from([0.0, 0.3, 0.5, 1.0]),
       st.sampled_from([0.0, 0.6, 1.0]))
def test_each_step_code_encodes_the_shifted_history(K, seed, w1, w2):
    g = BimatrixGame("rect", np.arange(6.0).reshape(3, 2) / 6, np.ones((3, 2)))
    rng = np.random.default_rng(seed)
    spies = _RandomSpy(3, w1, rng), _RandomSpy(2, w2, rng)
    cfg = MatchConfig(T=60, K=K, seed=seed)
    tr = run_match(g, *spies, cfg)
    # histories start at action 0, the first K bits from the first K draws
    start = engine_rng(seed).random(K)
    a1 = (0,) * K + tuple(tr.a1.tolist())
    a2 = (0,) * K + tuple(tr.a2.tolist())
    y1 = tuple((start < w1).tolist()) + tuple(tr.y1.tolist())
    y2 = tuple((start < w2).tolist()) + tuple(tr.y2.tolist())
    for t in range(cfg.T):
        shifted = (a1[t:t + K], a2[t:t + K], y1[t:t + K + 1], y2[t:t + K + 1])
        code = encode(shifted, g.n1, g.n2)
        assert spies[0].states[t] == spies[1].states[t] == code


# runs of one call: 0 is random(), n > 0 is integers(n)
DRAW_RUNS = st.lists(st.tuples(st.sampled_from([0, 1, 2, 3, 5]), st.integers(1, 300)),
                     max_size=12)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([1, 2, 3, None]), DRAW_RUNS)
def test_agent_stream_yields_what_the_generator_yields(seed, block, runs):
    gen = np.random.default_rng(seed)
    stream = AgentStream(gen) if block is None else AgentStream(gen, block)
    raw = np.random.default_rng(seed)
    for n, count in runs:
        for _ in range(count):
            got = stream.integers(n) if n else stream.random()
            want = raw.integers(n) if n else raw.random()
            assert got == want and type(got) is type(want)


@pytest.mark.parametrize("block", [1, 3, 256])
@pytest.mark.parametrize("n", [7, 1000, 2 ** 31 + 5])
def test_agent_stream_redraws_where_lemire_rejects(n, block):
    # at n = 2**31 + 5 numpy rejects a 32-bit draw about half of the time, and
    # both the rejected half and the one after it come from raw words
    for seed in range(10):
        stream = AgentStream(np.random.default_rng(seed), block)
        gen = np.random.default_rng(seed)
        for use_integers in np.random.default_rng((seed, 1)).random(300) < 0.6:
            got = stream.integers(n) if use_integers else stream.random()
            want = gen.integers(n) if use_integers else gen.random()
            assert got == want and type(got) is type(want)


@pytest.mark.parametrize("p1, p2", [("laff", "qlearn"), ("manipulator", "laff")])
def test_a_match_reads_nothing_but_bit_generators(monkeypatch, p1, p2):
    # the streams call no Generator method, so the numbers come from the
    # bit generators' raw words alone
    g, cfg = builtin_game("chicken"), MatchConfig(T=2000, K=2, seed=11)
    want = play_match(g, p1, p2, cfg).columns()

    def bits_only(gen):
        return SimpleNamespace(bit_generator=gen.bit_generator)

    monkeypatch.setattr(laff.engine, "engine_rng",
                        lambda seed: bits_only(engine_rng(seed)))
    monkeypatch.setattr(laff.opponents, "agent_rng",
                        lambda seed, player: AgentStream(bits_only(agent_rng(seed, player).gen)))
    got = play_match(g, p1, p2, cfg).columns()
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_agent_stream_draws_nothing_before_its_first_draw():
    stream = agent_rng(3, 1)
    fresh = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1,)))
    assert stream.gen.bit_generator.state == fresh.bit_generator.state
    assert stream.random() == fresh.random()


def test_seat_two_observes_its_own_outcome():
    g = builtin_game("asym_biased")
    cfg = MatchConfig(T=300, seed=5)
    spy = _StateSpy()
    tr = run_match(g, build_agent("qlearn", g, 1, cfg), spy, cfg)
    # the opponent's actions and the two rewards differ, so a swap shows
    assert (tr.a1 != tr.a2).any() and (tr.r1 != tr.r2).any()
    assert spy.observed == list(zip(tr.t, tr.a1, tr.r2, tr.r1))


class _Rogue(Agent):
    def act(self, state, t):
        return 5


def test_out_of_range_action_aborts():
    g = builtin_game("chicken")
    with pytest.raises(RuntimeError, match="outside"):
        run_match(g, _Rogue(), FixedActionAgent(0, 2, player=2), MatchConfig(T=5))


class _BadWeight(FixedActionAgent):
    """Reports ``weight`` from its call for step ``at`` on, 0.5 before.

    The engine asks once for the starting signals (step 0) and once a step.
    """

    def __init__(self, player, weight, at):
        super().__init__(0, 2, player=player)
        self.bad, self.at = weight, at
        self.calls = 0

    def report_weight(self):
        self.calls += 1
        return self.bad if self.calls > self.at else 0.5


@pytest.mark.parametrize("player, weight, at, shown", [
    (1, 1.5, 0, "1.5"), (2, -0.25, 0, "-0.25"),
    (1, float("nan"), 3, "nan"), (2, 1.0000001, 4, "1.0000001"),
])
def test_out_of_range_weight_aborts(player, weight, at, shown):
    g = builtin_game("chicken")
    agents = [FixedActionAgent(0, 2, player=1), FixedActionAgent(0, 2, player=2)]
    agents[player - 1] = _BadWeight(player, weight, at)
    with pytest.raises(RuntimeError, match=rf"^player {player} agent reported "
                       rf"weight {shown} outside \[0, 1\] at step {at}$"):
        run_match(g, *agents, MatchConfig(T=5))


def test_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(T=0)
    with pytest.raises(ValueError):
        MatchConfig(T=10, eps=0.0)
    with pytest.raises(ValueError):
        MatchConfig(T=10, K=0)
