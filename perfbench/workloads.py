"""The benchmark's workloads: seeded inputs, CLI command lists, output checks.

Each workload is a fixed list of `laff` CLI commands, issued one after the
other in one process (a closed loop with one caller).  The seed reaches the
program only as `--seed` and as the JSON games written by `build_inputs`.

Every command's outputs pass a correctness gate:
  * at the reference seed, match-derived CSVs must equal the recorded sha256
    and floating results (replicator shares, `mu_star`) must lie within the
    recorded absolute tolerance of the reference values;
  * at every seed, the invariants below hold, and repeats within one run
    must be byte-identical (checked by the caller through `fingerprint`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from laff.games import EVALUATION_GAMES, GAME_NAMES, load_game

REFERENCE_SEED = 0
ALGORITHMS = ("laff", "bully", "qlearn", "fp")
MDP_OPPONENTS = ("bully", "ftft", "egal", "maximin")

# "full" is what the benchmark measures; "tiny" only exercises the harness.
SIZES = {
    "tournament": {
        "full": {"games": len(EVALUATION_GAMES), "T": 500, "trials": 1,
                 "generations": 200, "runs": 40},
        "tiny": {"games": 2, "T": 60, "trials": 1,
                 "generations": 10, "runs": 4},
    },
    "regret_long": {
        "full": {"T": 50000, "seeds": 4},
        "tiny": {"T": 400, "seeds": 2},
    },
    "mdp_sweep": {
        "full": {"K": 2, "builtin": 8, "random": 1},
        "tiny": {"K": 1, "builtin": 2, "random": 1},
    },
}
WORKLOADS = tuple(SIZES)


@dataclass
class Command:
    """One CLI command, the files it writes, and what its outputs must satisfy."""

    argv: list             # argv[0], the subcommand, selects the checks
    outputs: list          # paths of the files the command writes
    rows: int = 0          # data rows expected in the last output file


@dataclass
class Plan:
    """A workload at one seed and size, with its inputs already built."""

    commands: list
    work_units: float      # steps (match workloads) or solves (mdp_sweep)
    games: dict            # game name -> BimatrixGame, for invariant checks


def _random_games(seed: int, count: int) -> list:
    """Rectangular 3x2 games with rewards in [0, 1], drawn from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3, 2)))
    out = []
    for i in range(count):
        r1, r2 = np.round(rng.random((2, 3, 2)), 3)
        out.append({"name": f"rand3x2_s{seed}_{i}",
                    "R1": r1.tolist(), "R2": r2.tolist()})
    return out


def build_inputs(name: str, seed: int, size: str, work: Path) -> Plan:
    """Load the workload's games, write its seeded JSON games, list its commands."""
    p = SIZES[name][size]
    work.mkdir(parents=True, exist_ok=True)
    s = str(seed)

    if name == "tournament":
        names = EVALUATION_GAMES[:p["games"]]
        games = {g: load_game(g) for g in names}
        n = len(ALGORITHMS)
        matches = sum(n * (n + 1) // 2 if g.is_symmetric() else n * n
                      for g in games.values()) * p["trials"]
        out = work / "tournament"
        pgt = out / "pair_game_trial.csv"
        cmds = [
            Command(["tournament", "--algorithms", ",".join(ALGORITHMS),
                     "--games", ",".join(names), "--trials", str(p["trials"]),
                     "--T", str(p["T"]), "--K", "1", "--seed", s,
                     "--jobs", "1", "--out", str(out)],
                    [out / "learning_game.csv", pgt],
                    rows=n * n * len(names) * p["trials"]),
            Command(["replicator", "--input", str(pgt),
                     "--generations", str(p["generations"]),
                     "--runs", str(p["runs"]), "--seed", s,
                     "--out", str(out / "population.csv")],
                    [out / "population.csv"],
                    rows=p["generations"] + 1),
        ]
        return Plan(cmds, float(matches * p["T"]), games)

    if name == "regret_long":
        game = load_game("chicken")
        out = work / "regret"
        cmds = [Command(["regret", "--game", "chicken", "--p1", "laff",
                         "--p2", "qlearn", "--opp-class", "follower_unconditional",
                         "--K", "2", "--seeds", str(p["seeds"]), "--T", str(p["T"]),
                         "--seed", s, "--out", str(out)],
                        [out / "regret_chicken_qlearn.csv"], rows=p["T"])]
        return Plan(cmds, float(p["seeds"] * p["T"]), {"chicken": game})

    if name == "mdp_sweep":
        specs = list(GAME_NAMES[:p["builtin"]])
        for doc in _random_games(seed, p["random"]):
            path = work / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            specs.append(str(path))
        games = {}
        cmds = []
        for spec in specs:
            game = load_game(spec)
            games[game.name] = game
            for opp in MDP_OPPONENTS:
                cmds.append(Command(["benchmark", "--K", str(p["K"]), "--game", spec,
                                     "--opponent", opp, "--seed", s], []))
        return Plan(cmds, float(len(cmds)), games)

    raise KeyError(f"unknown workload '{name}'")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprint(cmd: Command, stdout: str) -> str:
    """Digest of everything a command produced, to compare repeats."""
    h = hashlib.sha256(stdout.encode())
    for path in cmd.outputs:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _csv(path: Path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _means_in_unit_interval(path: Path, cols) -> list:
    header, rows = _csv(path)
    idx = [header.index(c) for c in cols]
    bad = [r for r in rows if not all(0.0 <= float(r[i]) <= 1.0 for i in idx)]
    return [f"{Path(path).name}: {len(bad)} rows with a mean outside [0, 1]"] if bad else []


def check(plan: Plan, cmd: Command, stdout: str, reference) -> tuple:
    """Problems found in one command's outputs, and the values the reference keeps.

    ``reference`` is the recorded entry for this workload and size at the
    reference seed, or None at any other seed.
    """
    problems, record = [], {}
    if cmd.outputs:
        header, rows = _csv(cmd.outputs[-1])
        if len(rows) != cmd.rows:
            problems.append(f"{cmd.outputs[-1].name} has {len(rows)} rows, expected {cmd.rows}")
    kind = cmd.argv[0]
    if kind == "tournament":
        lg, pgt = cmd.outputs
        for path in (lg, pgt):
            record[path.name] = sha256(path)
        problems += _means_in_unit_interval(lg, ("m1", "m2"))
        problems += _means_in_unit_interval(pgt, ("m1", "m2"))
    elif kind == "replicator":
        means = [[float(r[i]) for i, c in enumerate(header) if c.endswith("_mean")]
                 for r in rows]
        std_idx = [i for i, c in enumerate(header) if c.endswith("_std")]
        for g, m in enumerate(means):
            if min(m) < -1e-12 or abs(sum(m) - 1.0) > 1e-6:
                problems.append(f"population.csv generation {g} is off the simplex")
                break
        if any(float(r[i]) < 0 for r in rows for i in std_idx):
            problems.append("population.csv has a negative standard deviation")
        record["population_means"] = means
    elif kind == "regret":
        path, = cmd.outputs
        record[path.name] = sha256(path)
        bench = float(stdout.rsplit("(benchmark ", 1)[1].split(")")[0])
        game = plan.games["chicken"]
        lo, hi = bench - game.R1.max() - 1e-9, bench - game.R1.min() + 1e-9
        if [int(r[0]) for r in rows] != list(range(1, cmd.rows + 1)):
            problems.append(f"{path.name} does not hold rows t = 1..{cmd.rows}")
        if any(not lo <= float(r[1]) <= hi for r in rows):
            problems.append(f"{path.name} has an average regret outside "
                            f"[benchmark - max R1, benchmark - min R1]")
    elif kind == "benchmark":
        doc = json.loads(stdout)
        game = plan.games[doc["game"]]
        if not doc["mu_s1"] - 1e-6 <= doc["mu_star"] <= game.R1.max() + 1e-12:
            problems.append(f"{doc['game']}/{doc['opponent']}: mu_star "
                            f"{doc['mu_star']} outside [mu_s1 - 1e-6, max R1]")
        record.update(game=doc["game"], opponent=doc["opponent"], mu_star=doc["mu_star"])
    else:
        raise KeyError(kind)

    if reference is not None:
        problems += _compare(record, reference)
    return problems, record


def _compare(record: dict, reference: dict) -> list:
    problems = []
    tol = reference["tolerance"]
    for key, got in record.items():
        want = reference["values"].get(key)
        if want is None:
            problems.append(f"no reference value for {key}")
        elif key == "population_means":
            diff = np.max(np.abs(np.asarray(got) - np.asarray(want))) \
                if np.shape(got) == np.shape(want) else np.inf
            if diff > tol["population_share"]:
                problems.append(f"population shares differ from the reference "
                                f"by {diff:.3g} > {tol['population_share']}")
        elif key == "mu_star":
            if abs(got - want) > tol["mu_star"]:
                problems.append(f"mu_star {got} differs from the reference "
                                f"{want} by more than {tol['mu_star']}")
        elif got != want:
            problems.append(f"{key} {got} differs from the reference {want}")
    return problems
