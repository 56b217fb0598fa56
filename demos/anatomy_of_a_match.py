"""Step-by-step anatomy of one LAFF match: expert schedule, switch times,
and what each phase earns.

Run:  python3 demos/anatomy_of_a_match.py [opponent]   (default: qlearn)
"""

import sys

import numpy as np

from laff import MatchConfig, builtin_game
from laff.engine import run_match
from laff.opponents import build_agent

opponent = sys.argv[1] if len(sys.argv) > 1 else "qlearn"
game = builtin_game("sym_inferior")
cfg = MatchConfig(T=50000, seed=1)

laff = build_agent("laff", game, 1, cfg)
opp = build_agent(opponent, game, 2, cfg)

print(f"game: {game.name}   opponent: {opponent}   T={cfg.T}")
print(f"targets (bully, bully, ebs, ebs, security): "
      f"{[round(t, 4) for t, _ in laff.guards]}")
print(f"fairness level V1 = {laff.kit.ebs.u1:.4f}, epoch H = {laff.H}, "
      f"subepoch = {laff.subepoch}")

trace = run_match(game, laff, opp, cfg)

names = {1: "follower#1", 2: "bully leader", 3: "follower#2",
         4: "egalitarian leader", 5: "follower#3", 6: "maximin"}
print(f"\n{'expert':>20s} {'steps':>8s} {'own avg':>8s} {'opp avg':>8s}")
for j in np.unique(trace.expert1):
    mask = trace.expert1 == j
    print(f"{names[int(j)]:>20s} {mask.sum():8d} "
          f"{trace.r1[mask].mean():8.3f} {trace.r2[mask].mean():8.3f}")

print(f"\nswitch times: {laff.switch_times}")
print(f"follower tripwire fired: {laff.follower_tripped}")
m1, m2 = trace.mean_rewards()
print(f"match means: r1 = {m1:.4f}, r2 = {m2:.4f}")
print("""
Reading the table: LAFF works down its schedule until an expert's average
holds up against that slot's target. Against a learner it typically parks
on the bully leader (or a follower instance that has learned to bully);
against an exploiter a tripped follower hands the seat to the egalitarian
leader, which punishes deviations, and so does every later follower slot.
""")
