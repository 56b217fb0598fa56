import json
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import laff.games
from laff import (BimatrixGame, EnforceParams, GAME_NAMES, LeaderKit,
                  builtin_game, load_game, punishment_strategy, security_value,
                  swap_players)
from oracles import maximin_exact, maximin_grid, maximin_lp


def test_chicken_security_values():
    g = builtin_game("chicken")
    v1, s1 = security_value(g, 1)
    v2, s2 = security_value(g, 2)
    assert v1 == pytest.approx(0.25, abs=1e-9)
    assert v2 == pytest.approx(0.25, abs=1e-9)
    # pure first action for both players
    assert s1[0] == pytest.approx(1.0)
    assert s2[0] == pytest.approx(1.0)


def test_security_value_rejects_a_third_player():
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        security_value(builtin_game("chicken"), 3)


@pytest.mark.parametrize("r1, value, probs", [
    ([[0.7]], 0.7, (1.0,)),
    ([[0.7, 0.2, 0.5]], 0.2, (1.0,)),
    ([[0.2], [0.7], [0.5]], 0.7, (0.0, 1.0, 0.0)),
], ids=["1x1", "1x3", "3x1"])
def test_single_action_game(r1, value, probs):
    g = BimatrixGame("one", r1, np.full_like(r1, 0.3))
    v, s = security_value(g, 1)
    assert v == pytest.approx(value)
    assert s.tolist() == list(probs)


def test_zero_sum_mixing():
    g = BimatrixGame("coord", [[1.0, 0.0], [0.0, 1.0]],
                     [[0.0, 1.0], [1.0, 0.0]])
    v, s = security_value(g, 1)
    assert v == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(s, [0.5, 0.5], atol=1e-9)
    assert maximin_grid(g.R1) <= v + 2e-3


def test_punishment_equals_opponent_security():
    for name in GAME_NAMES:
        g = builtin_game(name)
        pv, _ = punishment_strategy(g)
        sv, _ = security_value(g, 2)
        assert pv == pytest.approx(sv, abs=1e-6), name


def test_chicken_punishment_strategy():
    g = builtin_game("chicken")
    pv, ps = punishment_strategy(g)
    assert pv == pytest.approx(0.25, abs=1e-9)
    # best response value of player 2 against the punishment mix is 0.25
    br = max(float(ps @ g.R2[:, j]) for j in range(g.n2))
    assert br == pytest.approx(0.25, abs=1e-9)


def test_security_within_matrix_range_and_grid_oracle():
    for name in GAME_NAMES:
        g = builtin_game(name)
        for player, M in ((1, g.R1), (2, g.R2.T)):
            v, _ = security_value(g, player)
            assert M.min() - 1e-9 <= v <= M.max() + 1e-9
            assert maximin_grid(M) <= v + 2e-3


@pytest.mark.parametrize("name", ["chicken", "cyclic", "asym_biased"])
def test_zero_sum_strategies_are_read_only_float_arrays(name):
    # pure optima (chicken) and mixed ones (cyclic, asym_biased) alike
    g = builtin_game(name)
    for _, s in (security_value(g, 1), security_value(g, 2),
                 punishment_strategy(g)):
        assert isinstance(s, np.ndarray) and s.dtype == np.float64
        assert s.shape == (2,) and s.min() >= 0.0
        assert s.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            s[0] = 0.5


def test_library_contents():
    assert len(GAME_NAMES) == 16
    for name in GAME_NAMES:
        g = builtin_game(name)
        assert g.R1.min() >= 0 and g.R1.max() <= 1
        assert g.R2.min() >= 0 and g.R2.max() <= 1


def test_sym_inferior_layout():
    g = builtin_game("sym_inferior")
    assert np.allclose(g.R1, [[0.8, 0.0], [1.0, 0.2]])
    assert np.allclose(g.R2, [[0.8, 1.0], [0.0, 0.2]])
    assert g.is_symmetric()


def test_is_symmetric_holds_payoffs_to_the_absolute_tie_tolerance():
    # entries 2e-6 apart, which numpy's default rtol of 1e-5 would forgive
    g = BimatrixGame("g", [[.5, .25], [1, .3]], [[.5, 1], [.25, .300002]])
    assert not g.is_symmetric()
    g = BimatrixGame("g", [[.5, .25], [1, .3]], [[.5, 1], [.25, .3 + 1e-13]])
    assert g.is_symmetric()


def test_swap_players():
    g = builtin_game("asym_biased")
    s = swap_players(g)
    assert np.allclose(s.R1, g.R2.T)
    assert np.allclose(s.R2, g.R1.T)


def test_load_game_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"name": "mini", "R1": [[0.2, 1.0]],
                             "R2": [[0.5, 0.0]]}))
    g = load_game(str(p))
    assert g.name == "mini" and g.n1 == 1 and g.n2 == 2
    # 16 actions per player is the cap; one more is refused (tests/test_cli.py)
    p.write_text(json.dumps({"R1": [[0.5] * 16] * 16, "R2": [[0.5] * 16] * 16}))
    assert load_game(str(p)).R1.shape == (16, 16)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"R1": [[1.5]], "R2": [[0.0]]}))
    with pytest.raises(ValueError):
        load_game(str(bad))

    with pytest.raises(KeyError):
        load_game("no_such_game")


def test_unknown_builtin_game_names_the_built_ins():
    with pytest.raises(KeyError) as info:
        builtin_game("nosuch")
    assert info.value.args == (
        "unknown game 'nosuch'; built-ins: " + ", ".join(GAME_NAMES),)
    assert info.value.__suppress_context__  # no second traceback


def test_game_copies_and_freezes_its_matrices():
    r1 = np.array([[0.5, 0.25], [1.0, 0.0]])
    r2 = r1.T.copy()
    g = BimatrixGame("x", r1, r2)
    for m in (g.R1, g.R2):
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
    # the caller's arrays stay writable and are not shared with the game
    r1[0, 0] = 0.0
    assert g.R1[0, 0] == 0.5


def test_unpickled_game_keeps_read_only_matrices():
    # tournament workers receive their games pickled
    g = builtin_game("chicken")
    LeaderKit.build(g, 1, EnforceParams(1, 0.05))
    h = pickle.loads(pickle.dumps(g))
    assert h.name == g.name
    for m, orig in ((h.R1, g.R1), (h.R2, g.R2)):
        assert np.array_equal(m, orig)
        assert not m.flags.writeable
    # the kit travels with its game, its arrays read-only again
    kit = h._kits[(1, EnforceParams(1, 0.05))]
    assert h._kits.keys() == g._kits.keys()
    for arr in (kit.maximin, kit.punish):
        assert not arr.flags.writeable


@st.composite
def _lp_games(draw):
    """2x2, 3x2 and 2x3 games, entries on the quarter grid or anywhere in [0, 1]."""
    shape = draw(st.sampled_from(((2, 2), (3, 2), (2, 3))))
    elements = draw(st.sampled_from((st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
                                     st.floats(0.0, 1.0))))
    return BimatrixGame("random", draw(arrays(np.float64, shape, elements=elements)),
                        draw(arrays(np.float64, shape, elements=elements)))


# (frame, call, the LP matrix the call solves, sign of the returned value)
_LP_CALLS = [
    (frame, name, call, matrix, sign)
    for frame in ("game", "swapped")
    for name, call, matrix, sign in (
        ("security 1", lambda g: security_value(g, 1), lambda g: g.R1, 1.0),
        ("security 2", lambda g: security_value(g, 2), lambda g: g.R2.T, 1.0),
        ("punishment", punishment_strategy, lambda g: -g.R2, -1.0),
    )
]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_lp_games(), st.lists(st.sampled_from(range(len(_LP_CALLS))),
                             min_size=1, max_size=12))
# R1 and R2.T hold the same bytes in different shapes and have different values
@example(BimatrixGame("same bytes", [[1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]]),
         [0, 1])
def test_lp_cache_returns_exactly_a_fresh_solve(g, order):
    frames = {"game": g, "swapped": swap_players(g)}
    assert frames["swapped"]._lps is g._lps
    for i in order:
        frame, name, call, matrix, sign = _LP_CALLS[i]
        value, strategy = call(frames[frame])
        want_value, want_strategy = laff.games._maximin(matrix(frames[frame]))
        assert value.hex() == (sign * want_value).hex(), (frame, name)
        assert strategy.tobytes() == want_strategy.tobytes(), (frame, name)
        assert not strategy.flags.writeable, (frame, name)
    # four distinct LPs at most: each seat's security and punishment
    assert 1 <= len(g._lps) <= 4
    # a pickled game carries the same LPs, their strategies read-only
    copy = pickle.loads(pickle.dumps(g))._lps
    assert copy.keys() == g._lps.keys()
    for (value, strategy), (got_value, got) in zip(g._lps.values(), copy.values()):
        assert got_value.hex() == value.hex()
        assert got.tobytes() == strategy.tobytes() and not got.flags.writeable


@st.composite
def _lp_matrices(draw):
    """1-4 x 1-4 matrices, entries on the quarter grid or anywhere in [-1, 1]."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    quarters = st.sampled_from([k / 4 for k in range(-4, 5)])
    elements = draw(st.sampled_from((quarters, st.floats(-1.0, 1.0))))
    return draw(arrays(np.float64, shape, elements=elements))


def _lp_examples(test):
    """The strategies and examples shared by the two oracle comparisons."""
    for M in ([[0.0, 1.0], [0.5, 0.75]],  # saddle in the second row
              [[0.0, 1.0], [0.5, 1.0], [0.5, 0.75]],  # tie: row 1 wins
              -np.zeros((2, 2)),  # the value is -0.0
              builtin_game("cyclic").R1,  # no saddle: the exact kernel runs
              # no saddle, yet the pure row 2 is optimal and is kept
              [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]):
        test = example(np.array(M))(test)
    return settings(derandomize=True, database=None, max_examples=300,
                    deadline=None)(given(_lp_matrices())(test))


@_lp_examples
# HiGHS returned 5.96e-08, within its feasibility tolerance; the all-zero
# column caps the value at 0
@example(np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 2.0**-24], [0.0, 0.0, 0.0]]))
# HiGHS returned rows 1 and 3, as if the 4.4e-77 entry were 0
@example(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [4.3843001e-77, 1.0, 1.0],
                   [0.0, 1.0, 1.0]]))
def test_maximin_matches_the_exact_oracle(M):
    # bit for bit where the optimal strategy is determined, else optimal
    value, strategy = laff.games._maximin(M)
    want_value, want_strategy, determined = maximin_exact(M)
    assert value.hex() == want_value.hex()
    if determined:
        assert strategy.tobytes() == want_strategy.tobytes()
    else:
        assert strategy.min() >= 0 and abs(strategy.sum() - 1) <= 1e-12
        assert (strategy @ M).min() >= value - 1e-12
    assert not strategy.flags.writeable


@_lp_examples
def test_maximin_matches_the_highs_oracle_within_1e_15(M):
    # HiGHS's floats differ from the exact optimum by a few ulps, and where
    # the optimum is not unique it may return another optimal vertex.  An
    # entry or a gap between entries below 1e-6 is within reach of its
    # tolerances (1e-7 feasibility), which then decide its answer.
    values = np.unique(np.append(M, 0.0))
    assume(np.diff(values).min(initial=1.0) >= 1e-6)
    value, strategy = laff.games._maximin(M)
    want_value, want_strategy = maximin_lp(M)
    assert abs(value - want_value) <= 1e-15
    if maximin_exact(M)[2]:
        assert np.abs(strategy - want_strategy).max() <= 1e-15
