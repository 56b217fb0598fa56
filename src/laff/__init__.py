"""Repeated-game simulation lab.

Core pieces: bimatrix games and zero-sum kernels (`games`), enforceable
bargaining solutions (`bargaining`), the match engine (`engine`), induced
average-reward MDPs (`mdp`), LAFF's experts (`experts`) and controller with
all of its decision rules (`controller`), the opponent zoo (`opponents`),
and tournament/replicator evaluation (`evaluation`).
"""

from .bargaining import (EnforceParams, JointAction, PairSolution,
                         bully_solution, deviation_profit, enforceable_ebs,
                         punishment_length)
from .controller import Laff, rq_bound, switch_slack
from .engine import Agent, MatchConfig, MatchTrace, run_match
from .evaluation import (benchmark_for, play_match, pure_nash, regret_curve,
                         replicator_run, replicator_step, round_robin)
from .experts import LeaderKit
from .games import (BimatrixGame, EVALUATION_GAMES, GAME_NAMES, TRAINING_GAMES,
                    builtin_game, load_game, punishment_strategy,
                    security_value, swap_players)
from .mdp import InducedMdp, induce_mdp, optimal_average_reward
from .opponents import build_agent, bounded_memory_policy

__all__ = [
    "Agent", "BimatrixGame", "EnforceParams", "EVALUATION_GAMES", "GAME_NAMES",
    "InducedMdp", "JointAction", "Laff", "LeaderKit",
    "MatchConfig", "MatchTrace", "PairSolution", "TRAINING_GAMES",
    "benchmark_for", "bounded_memory_policy", "build_agent", "builtin_game",
    "bully_solution", "deviation_profit", "enforceable_ebs",
    "induce_mdp", "load_game",
    "optimal_average_reward", "play_match", "punishment_length",
    "punishment_strategy", "pure_nash", "regret_curve",
    "replicator_run", "replicator_step", "round_robin", "rq_bound",
    "run_match", "security_value", "swap_players", "switch_slack",
]

__version__ = "0.1.0"
