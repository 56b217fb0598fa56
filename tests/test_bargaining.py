import math

import numpy as np
import pytest
from hypothesis import given, settings

from laff import (BimatrixGame, EnforceParams, JointAction, builtin_game,
                  bully_solution, deviation_profit, enforceable_ebs,
                  punishment_length, security_value, switch_slack)
from laff.bargaining import PairSolution
from laff.experts import SolutionMap
from oracles import bargaining_grid, random_games

EP = EnforceParams(1, 0.05)
GRID = [(K, eps) for K in (1, 2) for eps in (0.05, 0.2)]


def test_deviation_profit_chicken():
    g = builtin_game("chicken")
    assert deviation_profit(g, {(0, 1), (1, 0)}) == pytest.approx(-0.25)
    assert deviation_profit(g, {(1, 0)}) == pytest.approx(-0.25)
    # (0, 0): player 2's best response to row 0 is column 1, not 0
    assert deviation_profit(g, {(0, 0)}) == pytest.approx(0.5)
    # a pair where x2 is already the strict best response
    assert deviation_profit(g, {(0, 1)}) < 0
    with pytest.raises(ValueError):
        deviation_profit(g, set())


def test_deviation_profit_single_column():
    g = BimatrixGame("col", [[0.2], [0.9]], [[0.4], [0.6]])
    assert deviation_profit(g, {(0, 0)}) == -math.inf


def test_least_enforceable_weight_branches():
    # equal player-2 rewards: a pair is enforceable at every weight or at none
    g = BimatrixGame("flat", [[0.6, 0.2], [0.2, 0.6]],
                     [[0.5, 0.45], [0.45, 0.5]])
    sol = enforceable_ebs(g, EnforceParams(1, 0.05))
    assert (sol.xA, sol.xB, sol.alpha) == ((0, 0), (0, 0), 1.0)
    assert enforceable_ebs(g, EnforceParams(1, 0.2)).is_fallback
    # a least weight above 1 makes chicken's even split infeasible
    sol = enforceable_ebs(builtin_game("chicken"), EnforceParams(1, 1.1))
    assert (sol.xA, sol.xB, sol.alpha) == ((0, 1), (0, 1), 1.0)


def test_chicken_ebs():
    g = builtin_game("chicken")
    sol = enforceable_ebs(g, EP)
    assert sol.kind == "EBS"
    assert sol.alpha == pytest.approx(0.5)
    assert sol.u1 == pytest.approx(0.625)
    assert sol.u2 == pytest.approx(0.625)
    assert {tuple(sol.xA), tuple(sol.xB)} == {(0, 1), (1, 0)}


def test_chicken_ebs_feasibility_threshold():
    # the even split stays feasible up to eps = 0.375K + 0.25
    g = builtin_game("chicken")
    for K in (1, 2):
        crit = 0.375 * K + 0.25
        below = enforceable_ebs(g, EnforceParams(K, crit - 1e-3))
        above = enforceable_ebs(g, EnforceParams(K, crit + 1e-3))
        assert below.alpha == pytest.approx(0.5, abs=1e-6)
        assert above.alpha > 0.5 + 1e-4


def test_chicken_bully():
    g = builtin_game("chicken")
    sol = bully_solution(g, EP)
    assert sol.u1 == pytest.approx(1.0)
    assert sol.u2 == pytest.approx(0.25)
    tight = bully_solution(g, EnforceParams(1, 0.3))
    assert tight.u1 == pytest.approx(0.95)
    assert tight.u2 == pytest.approx(0.3)


def test_fallback_when_nothing_enforceable():
    # constant opponent rewards leave zero deviation profit but also zero
    # punishment leverage, so no pair can clear any positive slack
    g = BimatrixGame("flat2", [[0.3, 0.7], [0.2, 0.9]],
                     [[0.5, 0.5], [0.5, 0.5]])
    sol = enforceable_ebs(g, EP)
    assert sol.is_fallback
    muS1, _ = security_value(g, 1)
    assert sol.u1 == pytest.approx(muS1)
    assert bully_solution(g, EP).is_fallback
    with pytest.raises(ValueError, match="undefined for a security fallback"):
        punishment_length(sol, EP, security_value(g, 2)[0])


def test_oracle_equivalence_spotcheck():
    for name in ("chicken", "asym_unfair", "sym_inferior"):
        g = builtin_game(name)
        muS1, _ = security_value(g, 1)
        muS2, _ = security_value(g, 2)
        ebs = enforceable_ebs(g, EP)
        want = bargaining_grid(g, EP.K, EP.eps, selfish=False)
        assert want is not None
        got = min(ebs.u1 - muS1, ebs.u2 - muS2)
        assert got == pytest.approx(want, abs=1e-3), name

        bully = bully_solution(g, EP)
        want_b = bargaining_grid(g, EP.K, EP.eps, selfish=True)
        assert bully.u1 == pytest.approx(want_b, abs=1e-3), name


def test_solutions_satisfy_definition_on_all_games():
    from laff import GAME_NAMES

    for name in GAME_NAMES:
        g = builtin_game(name)
        muS1, _ = security_value(g, 1)
        muS2, _ = security_value(g, 2)
        for K, eps in GRID:
            ep = EnforceParams(K, eps)
            for sol in (enforceable_ebs(g, ep), bully_solution(g, ep)):
                if sol.is_fallback:
                    continue
                r = sol.deviation_profit
                assert K * sol.u2 >= K * muS2 + r + eps - 1e-9, (name, K, eps)
                assert sol.u1 >= muS1 - 1e-9
                assert sol.u2 >= muS2 - 1e-9
                mix1 = sol.alpha * g.R1[sol.xA] + (1 - sol.alpha) * g.R1[sol.xB]
                mix2 = sol.alpha * g.R2[sol.xA] + (1 - sol.alpha) * g.R2[sol.xB]
                assert mix1 == pytest.approx(sol.u1, abs=1e-9)
                assert mix2 == pytest.approx(sol.u2, abs=1e-9)


def test_ebs_symmetry_and_eps_monotonicity():
    from laff import GAME_NAMES

    for name in GAME_NAMES:
        g = builtin_game(name)
        muS1, _ = security_value(g, 1)
        muS2, _ = security_value(g, 2)
        if g.is_symmetric():
            sol = enforceable_ebs(g, EP)
            assert sol.u1 == pytest.approx(sol.u2, abs=1e-6), name
        prev = None
        for eps in (0.05, 0.1, 0.2, 0.4):
            sol = enforceable_ebs(g, EnforceParams(1, eps))
            score = min(sol.u1 - muS1, sol.u2 - muS2)
            if prev is not None:
                assert score <= prev + 1e-9, name
            prev = score


def test_bully_dominates_ebs_value():
    from laff import GAME_NAMES

    for name in GAME_NAMES:
        g = builtin_game(name)
        for K, eps in GRID:
            ep = EnforceParams(K, eps)
            ebs, bully = enforceable_ebs(g, ep), bully_solution(g, ep)
            if not ebs.is_fallback and not bully.is_fallback:
                assert bully.u1 >= ebs.u1 - 1e-9, (name, K, eps)


def test_punishment_length():
    g = builtin_game("chicken")
    muS2, _ = security_value(g, 2)
    assert punishment_length(enforceable_ebs(g, EP), EP, muS2) == 0
    synthetic = PairSolution(xA=JointAction(0, 0), xB=JointAction(0, 0),
                             alpha=1.0, u1=0.5, u2=muS2 + 0.25,
                             deviation_profit=0.2, kind="EBS")
    assert punishment_length(synthetic, EP, muS2) == 1
    boundary = PairSolution(xA=JointAction(0, 0), xB=JointAction(0, 0),
                            alpha=1.0, u1=0.5, u2=muS2 + 0.25,
                            deviation_profit=-EP.eps, kind="EBS")
    assert punishment_length(boundary, EP, muS2) == 0
    bad = PairSolution(xA=JointAction(0, 0), xB=JointAction(0, 0),
                       alpha=1.0, u1=0.5, u2=muS2,
                       deviation_profit=0.2, kind="EBS")
    with pytest.raises(ValueError):
        punishment_length(bad, EP, muS2)


def test_slack_b():
    # the switch slack with no target solution, now switch_slack's None map
    assert switch_slack(1, 200000, None, 0.05) == pytest.approx(0.06378486711900234)
    taus = [1, 2, 10, 100, 10000, 10 ** 8]
    vals = [switch_slack(t, 200000, None, 0.05) for t in taus]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def _map(r, Kp):
    """A solution map carrying only what the switch slack reads."""
    return SolutionMap(weight=1.0, Kp=Kp, r=r, plays=())


def test_slack_b_enforced_shrinks_with_margin():
    # a thin enforcement margin buys a follower a longer grace period:
    # xi = 0.5 (r = -0.5) against xi = 0.05/2 (r >= 0, Kp = 1)
    loose = switch_slack(100, 20000, _map(-0.5, 0), 0.05)
    tight = switch_slack(100, 20000, _map(0.2, 1), 0.05)
    assert tight > loose


def test_solver_handles_rectangular_games():
    # the pair search is not tied to 2x2: check a seeded 3x4 game against
    # the grid oracle
    rng = np.random.default_rng(12345)
    from laff import BimatrixGame, GAME_NAMES  # noqa: F401

    g = BimatrixGame("rect", rng.random((3, 4)), rng.random((3, 4)))
    muS1, _ = security_value(g, 1)
    muS2, _ = security_value(g, 2)
    for K, eps in ((1, 0.05), (2, 0.2)):
        ep = EnforceParams(K, eps)
        ebs = enforceable_ebs(g, ep)
        want = bargaining_grid(g, K, eps, selfish=False)
        if ebs.is_fallback:
            assert want is None or want < 1e-9
        else:
            got = min(ebs.u1 - muS1, ebs.u2 - muS2)
            assert got == pytest.approx(want, abs=1e-3)
        bully = bully_solution(g, ep)
        want_b = bargaining_grid(g, K, eps, selfish=True)
        if bully.is_fallback:
            assert want_b is None
        else:
            assert bully.u1 == pytest.approx(want_b, abs=1e-3)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(random_games())
def test_solvers_match_grid_oracle_on_random_games(g):
    muS1, _ = security_value(g, 1)
    muS2, _ = security_value(g, 2)
    for K, eps in GRID:
        ep = EnforceParams(K, eps)
        ebs = enforceable_ebs(g, ep)
        want = bargaining_grid(g, K, eps, selfish=False)
        if ebs.is_fallback:  # the fallback's score is 0
            assert want is None or want <= 1e-3, (K, eps)
        else:
            assert want is not None, (K, eps)
            got = min(ebs.u1 - muS1, ebs.u2 - muS2)
            assert got == pytest.approx(want, abs=1e-3), (K, eps)
        bully = bully_solution(g, ep)
        want_b = bargaining_grid(g, K, eps, selfish=True)
        if bully.is_fallback:
            assert want_b is None or want_b <= muS1 + 1e-3, (K, eps)
        else:
            assert want_b is not None, (K, eps)
            assert bully.u1 == pytest.approx(want_b, abs=1e-3), (K, eps)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_games())
def test_punishment_length_is_the_least_that_enforces(g):
    # K' rounds of punishment cost the opponent at least the deviation
    # profit plus eps, and K' - 1 rounds would not
    muS2, _ = security_value(g, 2)
    for K in (1, 2, 3):
        for eps in (0.05, 0.2, 0.5):
            ep = EnforceParams(K, eps)
            for sol in (enforceable_ebs(g, ep), bully_solution(g, ep)):
                if sol.is_fallback:
                    continue
                Kp = punishment_length(sol, ep, muS2)
                need, gap = sol.deviation_profit + eps, sol.u2 - muS2
                assert 0 <= Kp <= K, (K, eps, sol.kind)
                assert Kp * gap >= need - 1e-9, (K, eps, sol.kind)
                if Kp >= 1:
                    assert (Kp - 1) * gap < need + 1e-9, (K, eps, sol.kind)


def test_bully_stays_inside_the_individually_rational_set():
    # no cell with u1 = 1 is enforceable; mixing in (0, 0) enforces (1, 0) at
    # alpha = 0.05, but u1 = 0.95 falls below player 1's security value of 1
    g = BimatrixGame("below", [[0, 1], [1, 1]], [[1, 0], [0, 0]])
    assert security_value(g, 1)[0] == 1.0
    sol = bully_solution(g, EP)
    assert sol.is_fallback and (sol.u1, sol.u2) == (1.0, 0.0)
