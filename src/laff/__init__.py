"""Repeated-game simulation lab.

Core pieces: bimatrix games and zero-sum kernels (`games`), enforceable
bargaining solutions (`bargaining`), the match engine (`engine`), induced
average-reward MDPs (`mdp`), LAFF's experts and controller (`experts`,
`controller`), the opponent zoo (`opponents`), and tournament/replicator
evaluation (`evaluation`).
"""

from .bargaining import (EnforceParams, JointAction, PairSolution,
                         bully_solution, deviation_profit, enforceable_ebs,
                         punishment_length, slack_b, xi)
from .controller import Laff
from .engine import (Agent, MatchConfig, MatchTrace, decode, encode, run_match,
                     state_space_size)
from .evaluation import (benchmark_for, exploiter_regret, play_match,
                         pure_nash, regret_curve, replicator_run,
                         replicator_step, round_robin)
from .experts import LeaderKit, rq_bound
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
    "bully_solution", "decode", "deviation_profit", "encode", "enforceable_ebs",
    "exploiter_regret", "induce_mdp", "load_game",
    "optimal_average_reward", "play_match", "punishment_length",
    "punishment_strategy", "pure_nash", "regret_curve",
    "replicator_run", "replicator_step", "round_robin", "rq_bound",
    "run_match", "security_value", "slack_b", "state_space_size",
    "swap_players", "xi",
]

__version__ = "0.1.0"
