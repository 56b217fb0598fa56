"""Command-line entry point: solve | benchmark | match | regret | tournament | replicator.

All floats in CSV/JSON outputs are serialized with 10 significant digits and
every run is a pure function of its seed (--seed, 0 by default), so
repeating a command line reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import product
from pathlib import Path

import numpy as np

from .bargaining import EnforceParams, enforceable_ebs, bully_solution, \
    punishment_length
from .engine import MatchConfig, run_match
from .evaluation import (OPPONENT_CLASSES, TournamentResult, _match_config,
                         benchmark_for, check_entrants, play_match, pure_nash,
                         regret_curve, replicator_run, round_robin)
from .experts import LeaderKit
from .games import EVALUATION_GAMES, GAME_NAMES, load_game, security_value
from .opponents import (AGENT_NAMES, BOUNDED_MEMORY, bounded_memory_policy,
                        build_agent)
from .svg import svg_line_plot


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".10g")


def _print_json(doc) -> None:
    """Print ``doc`` as indented JSON, each float rounded as `_fmt` rounds it."""
    text = json.dumps(doc, default=list)  # numpy arrays as lists, floats by repr
    rounded = json.loads(text, parse_float=lambda s: float(_fmt(float(s))))
    print(json.dumps(rounded, indent=2, allow_nan=False))


def write_csv(path, header, columns):
    """Write one row per index of the equal-length ``columns``, each cell as
    `_fmt` gives it; numpy columns fill one printf template per row."""
    codes, cells = [], []
    for col in columns:
        kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
        if kind in "biuf":  # "%d" of a bool is 1 or 0, as `_fmt` gives it
            codes.append("%.10g" if kind == "f" else "%d")
            cells.append(col.tolist())
        else:
            codes.append("%s")
            cells.append(list(map(_fmt, col)))
    rows = map(",".join(codes).__mod__, zip(*cells, strict=True))
    Path(path).write_text("\n".join([",".join(header), *rows]) + "\n")


def _check_counts(args, **minimums):
    """Reject a count or seed flag below its minimum, before any work or output."""
    for name, low in minimums.items():
        value = getattr(args, name)
        if value < low:
            raise ValueError(f"--{name} must be >= {low}, got {value}")


def _config(args, T: int = 1) -> MatchConfig:
    return MatchConfig(T=T, K=args.K, eps=args.eps, seed=args.seed)


def _add_common(p, with_T=True, with_game=True, with_seed=True):
    if with_game:
        p.add_argument("--game", required=True,
                       help=f"built-in name ({', '.join(GAME_NAMES)}) or JSON file")
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.05)
    if with_seed:
        p.add_argument("--seed", type=int, default=0)
    if with_T:
        p.add_argument("--T", type=int, default=20000)


def _benchmark(game, opp_class: str, opponent: str, config: MatchConfig) -> float:
    """Player 1's per-step benchmark against ``opponent``, of class ``opp_class``."""
    if opp_class != "bounded_memory":
        return benchmark_for(game, opp_class, config)
    policy, w2 = bounded_memory_policy(opponent, game, config)
    return benchmark_for(game, opp_class, config, opp_policy=policy, w2=w2)


def cmd_solve(args) -> int:
    game = load_game(args.game)
    ep = EnforceParams(args.K, args.eps)
    mu_s1, s1 = security_value(game, 1)
    mu_s2, s2 = security_value(game, 2)

    def sol_dict(sol):
        r = sol.deviation_profit  # -inf if player 2 has one action: null, as a fallback's
        d = {"kind": sol.kind, "u1": sol.u1, "u2": sol.u2, "alpha": sol.alpha,
             "xA": sol.xA, "xB": sol.xB, "deviation_profit": None if r == -np.inf else r}
        if not sol.is_fallback:
            d["punishment_length"] = punishment_length(sol, ep, mu_s2)
        return d

    _print_json({
        "game": game.name, "K": args.K, "eps": args.eps,
        "security": {"mu_s1": mu_s1, "mu_s2": mu_s2,
                     "strategy1": s1, "strategy2": s2},
        "ebs": sol_dict(enforceable_ebs(game, ep)),
        "bully": sol_dict(bully_solution(game, ep)),
    })
    return 0


def cmd_benchmark(args) -> int:
    game = load_game(args.game)
    mu_star = _benchmark(game, "bounded_memory", args.opponent, _config(args))
    kit = LeaderKit.build(game, 1, EnforceParams(args.K, args.eps))
    _print_json({
        "game": game.name, "opponent": args.opponent, "mu_star": mu_star,
        "mu_s1": kit.mu_s_own, "mu_e1": kit.ebs.u1, "mu_b1": kit.bully.u1,
    })
    return 0


def cmd_match(args) -> int:
    game = load_game(args.game)
    config = _config(args, T=args.T)
    params = []
    for flag, text in (("--p1-params", args.p1_params), ("--p2-params", args.p2_params)):
        try:
            params.append(json.loads(text) if text else None)
        except ValueError as e:  # the decoder's message names no flag
            raise ValueError(f"{flag} is not JSON: {e}") from None
    # both entrants are built, and so checked, before the trace file is created
    a1 = build_agent(args.p1, game, 1, config, params[0])
    a2 = build_agent(args.p2, game, 2, config, params[1])
    if args.trace:
        open(args.trace, "a").close()  # an unusable path fails before the match
    trace = run_match(game, a1, a2, config)
    m1, m2 = trace.mean_rewards()
    if args.trace:
        cols = trace.columns()
        write_csv(args.trace, cols, cols.values())
    _print_json({"game": game.name, "p1": args.p1, "p2": args.p2,
                 "T": args.T, "seed": config.seed, "mean_r1": m1, "mean_r2": m2})
    return 0


def cmd_regret(args) -> int:
    _check_counts(args, seeds=1, stride=1)
    game = load_game(args.game)
    base = _config(args, T=args.T)

    # both entrants are checked before the benchmark and any output
    build_agent(args.p1, game, 1, base)
    build_agent(args.p2, game, 2, base)
    bench = _benchmark(game, args.opp_class, args.p2, base)

    # LAFF's runs keep the older name, which perfbench and criterion 9 read
    stem = (f"regret_{game.name}_{args.p2}" if args.p1 == "laff"
            else f"regret_{game.name}_{args.p1}_vs_{args.p2}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    ts = np.arange(1, args.T + 1)
    curves = []
    for s in range(args.seeds):
        trace = play_match(game, args.p1, args.p2, _match_config(base, s))
        curves.append(regret_curve(trace.r1, bench) / ts)
    ts, avg = ts[::args.stride], np.mean(curves, axis=0)[::args.stride]
    out_csv = out_dir / f"{stem}.csv"
    write_csv(out_csv, ["t", "avg_regret"], [ts, avg])
    if args.svg:
        svg_line_plot(out_dir / f"{stem}.svg", ts, {"avg_regret": avg},
                      title=f"{game.name}: {args.p1} vs {args.p2}")
    print(f"wrote {out_csv} (benchmark {_fmt(bench)})")
    return 0


def cmd_tournament(args) -> int:
    _check_counts(args, trials=1, jobs=1)
    names = args.algorithms.split(",")
    games = [load_game(g) for g in args.games.split(",")]
    config = _config(args, T=args.T)
    check_entrants(names, games, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = round_robin(names, games, args.trials, config, jobs=args.jobs)

    m1, m2 = result.means()
    write_csv(out_dir / "learning_game.csv", ["alg1", "alg2", "m1", "m2"],
              [*zip(*product(names, names)), m1.ravel(), m2.ravel()])
    write_csv(out_dir / "pair_game_trial.csv", TournamentResult.HEADER,
              result.columns())

    eqs = pure_nash(m1, m2)
    _print_json({"pure_nash": [[names[i], names[j]] for i, j in eqs]})
    return 0


def cmd_replicator(args) -> int:
    _check_counts(args, generations=0, runs=1, seed=0)
    result = TournamentResult.read(args.input)
    names = result.names
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    open(out, "a").close()  # an unusable path fails before any generation
    if args.svg:
        open(out.with_suffix(".svg"), "a").close()
    shares = replicator_run(result, args.generations, args.runs, seed=args.seed)
    mean = shares.mean(axis=0)
    std = shares.std(axis=0)
    header = ["generation"] + [f"{n}_mean" for n in names] + \
        [f"{n}_std" for n in names]
    generation = np.arange(args.generations + 1)
    write_csv(out, header, [generation, *mean.T, *std.T])
    if args.svg:
        svg_line_plot(out.with_suffix(".svg"), generation,
                      {n: mean[:, i] for i, n in enumerate(names)},
                      title="population shares")
    print(f"wrote {out}")
    return 0


@cache  # one parser per process: `main` is called in-process, many times
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="laff",
                                description="repeated-game simulation lab")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="security values, EBS and bully solutions")
    _add_common(ps, with_T=False, with_seed=False)  # solving draws nothing
    ps.set_defaults(fn=cmd_solve)

    pb = sub.add_parser("benchmark",
                        help="benchmark values vs a bounded-memory opponent")
    _add_common(pb, with_T=False)
    pb.add_argument("--opponent", required=True,
                    help=f"one of {BOUNDED_MEMORY} or fixed:<a>")
    pb.set_defaults(fn=cmd_benchmark)

    pm = sub.add_parser("match", help="run one seeded match")
    _add_common(pm)
    pm.add_argument("--p1", required=True, help=f"agent: {', '.join(AGENT_NAMES)}")
    pm.add_argument("--p2", required=True)
    pm.add_argument("--p1-params", default=None, help="JSON parameter overrides")
    pm.add_argument("--p2-params", default=None)
    pm.add_argument("--trace", default=None, help="write per-step CSV here")
    pm.set_defaults(fn=cmd_match)

    pr = sub.add_parser("regret", help="seed-averaged regret curve vs a benchmark")
    _add_common(pr)
    pr.add_argument("--p1", default="laff")
    pr.add_argument("--p2", required=True)
    pr.add_argument("--opp-class", dest="opp_class", required=True,
                    choices=OPPONENT_CLASSES)
    pr.add_argument("--seeds", type=int, default=10)
    pr.add_argument("--stride", type=int, default=1)
    pr.add_argument("--out", default="out")
    pr.add_argument("--svg", action="store_true")
    pr.set_defaults(fn=cmd_regret)

    pt = sub.add_parser("tournament", help="round-robin learning game")
    _add_common(pt, with_game=False)
    pt.add_argument("--algorithms", default="laff,bully,qlearn,fp")
    pt.add_argument("--games", default=",".join(EVALUATION_GAMES))
    pt.add_argument("--trials", type=int, default=5)
    pt.add_argument("--jobs", type=int, default=1)
    pt.add_argument("--out", default="out")
    pt.set_defaults(fn=cmd_tournament)

    pp = sub.add_parser("replicator", help="population dynamics over a tournament")
    pp.add_argument("--input", required=True, help="pair_game_trial.csv path")
    pp.add_argument("--generations", type=int, default=500)
    pp.add_argument("--runs", type=int, default=100)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out", default="out/population.csv")
    pp.add_argument("--svg", action="store_true")
    pp.set_defaults(fn=cmd_replicator)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (KeyError, ValueError, OSError, RuntimeError, MemoryError) as e:
        # str() of a KeyError is the repr of its message, quotes and all
        msg = e.args[0] if isinstance(e, KeyError) else e
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
