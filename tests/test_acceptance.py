"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Several criteria are statistical and use the fixed seed
ranges given in their statements.
"""

import time

import numpy as np

from laff import (EnforceParams, GAME_NAMES, EVALUATION_GAMES, MatchConfig,
                  builtin_game, bully_solution, decode, enforceable_ebs,
                  exploiter_regret, induce_mdp, optimal_average_reward,
                  play_match, pure_nash, replicator_step, replicator_run,
                  round_robin, security_value)
from laff.cli import main as cli_main
from laff.evaluation import benchmark_for, role_min_rewards
from laff.opponents import bounded_memory_policy
from oracles import (bargaining_grid, enumerate_deterministic_gains,
                     second_half_slope)

from test_evaluation import ALGS, M1, M2


def _report(n, name, ok, detail=""):
    print(f"\nACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_bargaining_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for name in GAME_NAMES:
        g = builtin_game(name)
        muS1, _ = security_value(g, 1)
        muS2, _ = security_value(g, 2)
        for K in (1, 2):
            for eps in (0.05, 0.2):
                ep = EnforceParams(K, eps)
                ebs = enforceable_ebs(g, ep)
                want = bargaining_grid(g, K, eps, selfish=False)
                if ebs.is_fallback:
                    assert want is None or want < 1e-9, (name, K, eps)
                else:
                    got = min(ebs.u1 - muS1, ebs.u2 - muS2)
                    worst = max(worst, abs(got - want))
                    assert abs(got - want) <= 1e-3, (name, K, eps)
                bully = bully_solution(g, ep)
                want_b = bargaining_grid(g, K, eps, selfish=True)
                if bully.is_fallback:
                    assert want_b is None, (name, K, eps)
                else:
                    worst = max(worst, abs(bully.u1 - want_b))
                    assert abs(bully.u1 - want_b) <= 1e-3, (name, K, eps)
    elapsed = time.perf_counter() - t0
    _report(1, "bargaining oracle equivalence", elapsed < 10.0,
            f"max |solver - oracle| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_chicken_analytics():
    g = builtin_game("chicken")
    mu1, _ = security_value(g, 1)
    mu2, _ = security_value(g, 2)
    ok = abs(mu1 - 0.25) < 1e-9 and abs(mu2 - 0.25) < 1e-9

    sol = enforceable_ebs(g, EnforceParams(1, 0.05))
    ok &= abs(sol.alpha - 0.5) < 1e-9
    ok &= abs(sol.u1 - 0.625) < 1e-9 and abs(sol.u2 - 0.625) < 1e-9

    # the even split stays available exactly up to eps = 0.375K + 0.25
    grid = 1e-3
    for K in (1, 2):
        crit = 0.375 * K + 0.25
        flips = []
        for eps in np.arange(crit - 5 * grid, crit + 5 * grid + grid / 2, grid):
            s = enforceable_ebs(g, EnforceParams(K, float(eps)))
            flips.append(abs(s.u1 - 0.625) < 1e-9)
        switch_at = next(i for i, f in enumerate(flips) if not f)
        eps_flip = crit - 5 * grid + switch_at * grid
        ok &= abs(eps_flip - crit) <= grid + 1e-9

    bully = bully_solution(g, EnforceParams(1, 0.05))
    ok &= abs(bully.u1 - 1.0) < 1e-9
    _report(2, "Chicken analytics", ok)


def _scripted_opponents():
    def always(a):
        def pol(state):
            d = np.zeros(2)
            d[a] = 1.0
            return d
        return pol

    def tit_for_tat(state):
        d = np.zeros(2)
        d[decode(state, 2, 2, 1)[0][-1]] = 1.0
        return d

    def alternator(state):
        d = np.zeros(2)
        d[1 - decode(state, 2, 2, 1)[1][-1]] = 1.0
        return d

    return [("always0", always(0)), ("always1", always(1)),
            ("tft", tit_for_tat), ("alternator", alternator)]


def test_criterion_3_mdp_gain_vs_enumeration():
    checked = 0
    for name in GAME_NAMES:
        g = builtin_game(name)

        def win_stay(state, _g=g):
            a1, a2, _, _ = decode(state, 2, 2, 1)
            d = np.zeros(2)
            last = _g.R2[a1[-1], a2[-1]]
            d[a2[-1] if last >= 0.5 else 1 - a2[-1]] = 1.0
            return d

        for opp_name, pol in _scripted_opponents() + [("winstay", win_stay)]:
            mdp = induce_mdp(g, pol, w1=0.0, w2=0.0, K=1)
            gain, _ = optimal_average_reward(mdp)
            best = max(enumerate_deterministic_gains(mdp))
            assert abs(gain - best) <= 1e-6, (name, opp_name, gain, best)
            checked += 1
    _report(3, "MDP gain matches policy enumeration", True,
            f"{checked} opponent/game MDPs")


def test_criterion_4_bully_exploiter_has_linear_regret():
    t0 = time.perf_counter()
    results = {}
    for name in ("sym_unfair", "sym_inferior"):
        g = builtin_game(name)
        mu_e2 = enforceable_ebs(g, EnforceParams(1, 0.05)).u2
        hits = 0
        for seed in range(10):
            tr = play_match(g, "laff", "bully", MatchConfig(T=20000, seed=seed))
            slope = second_half_slope(exploiter_regret(tr, mu_e2, 0.05))
            hits += slope > 0.005
        results[name] = hits
    elapsed = time.perf_counter() - t0
    ok = all(h >= 9 for h in results.values()) and elapsed < 120
    _report(4, "non-exploitability", ok, f"{results}, {elapsed:.0f}s")


def _avg_regret_ratio_pass(game, opp, bench, seeds=10, T=20000):
    r10, rT = [], []
    for s in range(seeds):
        tr = play_match(game, "laff", opp, MatchConfig(T=T, seed=s))
        cum = np.cumsum(tr.r1)
        r10.append(bench - cum[T // 10 - 1] / (T // 10))
        rT.append(bench - cum[-1] / T)
    a, b = float(np.mean(r10)), float(np.mean(rT))
    return b <= max(0.5 * a, 0.0) + 1e-12


def test_criterion_5_adaptability_sublinearity():
    cfg0 = MatchConfig(T=20000)
    tallies = {}
    for opp, bench_of in (
        ("qlearn", lambda g: bully_solution(g, EnforceParams(1, 0.05)).u1),
        ("ftft", None),
    ):
        n = 0
        for name in EVALUATION_GAMES:
            g = builtin_game(name)
            if opp == "ftft":
                pol, w2 = bounded_memory_policy("ftft", g, cfg0)
                bench = benchmark_for(g, "bounded_memory", cfg0,
                                      opp_policy=pol, w2=w2)
            else:
                bench = bench_of(g)
            n += _avg_regret_ratio_pass(g, opp, bench)
        tallies[opp] = n
    ok = all(n >= 7 for n in tallies.values())
    _report(5, "adaptability (regret halving)", ok,
            f"games passing per opponent (of 11): {tallies}")


def test_criterion_6_self_play_fairness():
    results = {}
    for name in ("chicken", "sym_winwin"):
        g = builtin_game(name)
        sol = enforceable_ebs(g, EnforceParams(1, 0.05))
        hits = 0
        for seed in range(10):
            tr = play_match(g, "laff", "laff", MatchConfig(T=50000, seed=seed))
            m1, m2 = tr.mean_rewards()
            hits += abs(m1 - sol.u1) <= 0.1 and abs(m2 - sol.u2) <= 0.1
        results[name] = hits
    ok = all(h >= 8 for h in results.values())
    _report(6, "self-play fairness", ok, str(results))


def test_criterion_7_pure_nash_on_published_table():
    cells = {(ALGS[i], ALGS[j]) for i, j in pure_nash(M1, M2)}
    want = {("Bully", "Q-Learning"), ("Q-Learning", "Bully"), ("LAFF", "LAFF")}
    _report(7, "pure-NE detector on published table", cells == want,
            str(sorted(cells)))


def test_criterion_8_replicator_dynamics():
    # exactness at the vertices and on the simplex
    rng = np.random.default_rng(0)
    r = role_min_rewards(rng.random((4, 4)), rng.random((4, 4)))
    pure = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(replicator_step(pure, r), pure)

    names = ["laff", "bully", "qlearn", "fp"]
    games = [builtin_game(n) for n in EVALUATION_GAMES]
    result = round_robin(names, games, trials=2,
                         config=MatchConfig(T=10000, seed=17))
    shares = replicator_run(result, generations=500, runs=100, seed=5)
    assert np.all(np.abs(shares.sum(axis=2) - 1.0) < 1e-9)
    final = shares[:, -1, 0]
    ok = final.mean() > 0.5
    _report(8, "replicator dynamics", ok,
            f"mean final LAFF share = {final.mean():.3f}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    blobs = []
    for k in range(2):
        trace = tmp_path / f"run{k}.csv"
        out = tmp_path / f"out{k}"
        assert cli_main(["match", "--game", "cyclic", "--p1", "laff",
                         "--p2", "bully", "--T", "2000", "--seed", "42",
                         "--trace", str(trace)]) == 0
        assert cli_main(["regret", "--game", "chicken", "--p1", "laff",
                         "--p2", "qlearn", "--opp-class",
                         "follower_unconditional", "--T", "500",
                         "--seeds", "2", "--seed", "9",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        blobs.append(trace.read_bytes()
                     + (out / "regret_chicken_qlearn.csv").read_bytes())
    _report(9, "CLI determinism", blobs[0] == blobs[1])
