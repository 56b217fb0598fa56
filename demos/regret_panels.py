"""Average-regret curves of LAFF against one opponent from each target
class, plus the exploiter's own regret when it tries to bully LAFF.

Writes CSVs and SVG plots under demos/out/.

Run:  python3 demos/regret_panels.py            (a few minutes)
      python3 demos/regret_panels.py --quick    (reduced horizon)
"""

import sys
from pathlib import Path

import numpy as np

from laff import (EnforceParams, MatchConfig, builtin_game, bully_solution,
                  enforceable_ebs, exploiter_regret, play_match,
                  regret_curve, security_value)
from laff.evaluation import benchmark_for
from laff.opponents import bounded_memory_policy
from laff.svg import svg_line_plot

QUICK = "--quick" in sys.argv
T = 20000 if QUICK else 100000
SEEDS = 3 if QUICK else 10
GAMES = ["chicken", "sym_inferior", "cyclic"]
OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)
ts = np.arange(1, T + 1)


def ftft_benchmark(g, cfg):
    policy, w2 = bounded_memory_policy("ftft", g, cfg)
    return benchmark_for(g, "bounded_memory", cfg, opp_policy=policy, w2=w2)


def averaged_curve(game, opp, bench, player=1):
    curves = []
    for s in range(SEEDS):
        tr = play_match(game, "laff", opp, MatchConfig(T=T, seed=s))
        rewards = tr.r1 if player == 1 else tr.r2
        if player == 2:
            curves.append(exploiter_regret(tr, bench, 0.05) / ts)
        else:
            curves.append(regret_curve(rewards, bench) / ts)
    return np.mean(curves, axis=0)


panels = {
    "qlearn": ("unconditional follower",
               lambda g, cfg: bully_solution(g, EnforceParams(cfg.K, cfg.eps)).u1),
    "ftft": ("bounded memory", ftft_benchmark),
    "laff": ("conditional follower (self-play)",
             lambda g, cfg: enforceable_ebs(g, EnforceParams(cfg.K, cfg.eps)).u1),
}

cfg0 = MatchConfig(T=T)
stride = max(1, T // 2000)

for opp, (label, bench_fn) in panels.items():
    series = {}
    for name in GAMES:
        g = builtin_game(name)
        bench = bench_fn(g, cfg0)
        series[name] = averaged_curve(g, opp, bench)[::stride]
        print(f"LAFF vs {opp:7s} on {name:13s}: benchmark {bench:.3f}, "
              f"final avg regret {series[name][-1]:+.3f}")
    svg_line_plot(OUT / f"regret_vs_{opp}.svg", ts[::stride], series,
                  title=f"LAFF avg regret vs {label}")

# the exploiter's side: a bully attacking LAFF earns linear regret
series = {}
for name in ["sym_unfair", "sym_inferior"]:
    g = builtin_game(name)
    mu_e2 = enforceable_ebs(g, EnforceParams(1, 0.05)).u2
    series[name] = averaged_curve(g, "bully", mu_e2, player=2)[::stride]
    print(f"bully vs LAFF on {name:13s}: exploiter avg regret at T "
          f"{series[name][-1]:+.3f} (positive and flat = linear regret)")
svg_line_plot(OUT / "regret_of_bully_vs_laff.svg", ts[::stride], series,
              title="exploiter's avg regret against LAFF")
print(f"\nplots in {OUT}/")
