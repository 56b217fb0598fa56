import json
import pickle

import numpy as np
import pytest

from laff import (BimatrixGame, EnforceParams, GAME_NAMES, LeaderKit,
                  builtin_game, load_game, punishment_strategy, security_value,
                  swap_players)
from oracles import maximin_grid


def test_chicken_security_values():
    g = builtin_game("chicken")
    v1, s1 = security_value(g, 1)
    v2, s2 = security_value(g, 2)
    assert v1 == pytest.approx(0.25, abs=1e-9)
    assert v2 == pytest.approx(0.25, abs=1e-9)
    # pure first action for both players
    assert s1[0] == pytest.approx(1.0)
    assert s2[0] == pytest.approx(1.0)


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

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"R1": [[1.5]], "R2": [[0.0]]}))
    with pytest.raises(ValueError):
        load_game(str(bad))

    with pytest.raises(KeyError):
        load_game("no_such_game")


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
    # kits stay with their process, so none arrives with writable arrays
    assert h._kits == {}
