import json
import re
import shlex
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laff.evaluation
from laff.cli import _print_json, build_parser, main, write_csv
from laff.svg import svg_line_plot
from oracles import write_csv_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_prints_eps_with_ten_digits(capsys):
    code, out, _ = run_cli(capsys, "solve", "--game", "chicken",
                           "--eps", "0.123456789012345")
    assert code == 0
    assert json.loads(out)["eps"] == 0.123456789
    assert '"eps": 0.123456789,' in out


def test_solve_chicken(capsys):
    code, out, _ = run_cli(capsys, "solve", "--game", "chicken",
                           "--K", "1", "--eps", "0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["security"]["mu_s1"] == pytest.approx(0.25)
    assert doc["security"]["mu_s2"] == pytest.approx(0.25)
    assert doc["ebs"]["u1"] == pytest.approx(0.625)
    assert doc["ebs"]["u2"] == pytest.approx(0.625)
    assert doc["ebs"]["alpha"] == pytest.approx(0.5)
    assert doc["ebs"]["punishment_length"] == 0
    assert doc["bully"]["u1"] == pytest.approx(1.0)


FLAT2_SOLVE = """\
{
  "game": "flat2",
  "K": 1,
  "eps": 0.05,
  "security": {
    "mu_s1": 0.3,
    "mu_s2": 0.5,
    "strategy1": [
      1.0,
      0.0
    ],
    "strategy2": [
      1.0,
      0.0
    ]
  },
  "ebs": {
    "kind": "SecurityFallback",
    "u1": 0.3,
    "u2": 0.5,
    "alpha": 1.0,
    "xA": null,
    "xB": null,
    "deviation_profit": null
  },
  "bully": {
    "kind": "SecurityFallback",
    "u1": 0.3,
    "u2": 0.5,
    "alpha": 1.0,
    "xA": null,
    "xB": null,
    "deviation_profit": null
  }
}
"""


def test_solve_prints_a_security_fallback(tmp_path, capsys):
    # the opponent's constant rewards leave nothing enforceable; no golden
    # digest covers this document, whose pairs are null and which has no
    # punishment_length
    path = tmp_path / "flat2.json"
    path.write_text(json.dumps({"name": "flat2", "R1": [[0.3, 0.7], [0.2, 0.9]],
                                "R2": [[0.5, 0.5], [0.5, 0.5]]}))
    assert run_cli(capsys, "solve", "--game", str(path)) == (0, FLAT2_SOLVE, "")


def test_solve_prints_null_for_a_deviation_profit_that_does_not_exist(
        tmp_path, capsys):
    # player 2 has one action, so no deviation exists; -Infinity is not JSON
    path = tmp_path / "edge1.json"
    path.write_text(json.dumps({"name": "edge1", "R1": [[0.51], [0.10]],
                                "R2": [[0.82], [0.37]]}))
    code, out, _ = run_cli(capsys, "solve", "--game", str(path))
    assert code == 0
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(name))
    for kind in ("ebs", "bully"):
        assert doc[kind]["deviation_profit"] is None
        assert doc[kind]["punishment_length"] == 0
    with pytest.raises(ValueError, match="not JSON compliant"):
        _print_json({"x": -np.inf})


def test_match_trace_rows(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code, out, _ = run_cli(capsys, "match", "--game", "chicken",
                           "--p1", "laff", "--p2", "bully",
                           "--T", "20000", "--seed", "1",
                           "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 20001
    header = lines[0].split(",")
    assert header[:8] == ["t", "a1", "a2", "y1", "y2", "x", "r1", "r2"]
    assert "expert1" in header  # LAFF adds its active-expert column


def test_byte_identical_reruns(tmp_path, capsys):
    blobs = []
    for name in ("a.csv", "b.csv"):
        trace = tmp_path / name
        code, out, _ = run_cli(capsys, "match", "--game", "sym_inferior",
                               "--p1", "laff", "--p2", "qlearn",
                               "--T", "3000", "--seed", "7",
                               "--trace", str(trace))
        assert code == 0
        blobs.append(trace.read_bytes())
    assert blobs[0] == blobs[1]


def test_solve_takes_no_seed(capsys):
    # solving draws nothing, so a seed would change nothing; argparse rejects it
    code, out, err = run_cli(capsys, "solve", "--game", "chicken", "--seed", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed 5" in err


def test_missing_flag_usage_error(capsys):
    code = main(["match", "--game", "chicken", "--p1", "laff"])
    assert code != 0


def test_unknown_game_is_reported(capsys):
    code, _, err = run_cli(capsys, "solve", "--game", "atlantis")
    assert code == 2
    assert "atlantis" in err


def test_bad_reward_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"R1": [[1.5]], "R2": [[0.2]]}))
    code, _, err = run_cli(capsys, "solve", "--game", str(p))
    assert code == 2
    assert "must lie in [0, 1]" in err


def test_non_finite_reward_file(tmp_path, capsys):
    # NaN slips past every range comparison, so it needs its own check
    for bad in (float("nan"), float("inf")):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"R1": [[bad, 0.5]], "R2": [[0.2, 0.3]]}))
        code, _, err = run_cli(capsys, "solve", "--game", str(p))
        assert code == 2
        assert err == f"error: {p}: rewards of game 'bad' must be finite\n"


@pytest.mark.parametrize("content, says", [
    (None, None),                                  # --game names a directory
    ("[[0.5]]", None),                             # top-level list
    ('{"R1": [[0.5]]}', "field R2"),               # missing field
    ('{"R1": [[0.5, 0.2], [0.1]], "R2": [[0.5]]}', "field R1"),  # ragged rows
    ("{R1: oops", None),                           # not JSON
    ('{"R1": [0.5], "R2": [0.5]}', None),          # vectors, not matrices
    ('{"R1": [[1.5]], "R2": [[0.2]]}', None),      # reward outside [0, 1]
    # float() reads a string or a boolean, but neither is a JSON number
    ('{"R1": [[0.5, 1], [0, 1]], "R2": [[0.5, "1e-1"], [0, 0]]}', "field R2"),
    ('{"R1": [[0.5, true], [0, 1]], "R2": [[0.5, 0.1], [0, 0]]}', "field R1"),
    ('{"R1": [["0.5", true], [0, 1]], "R2": [[0.5, "1e-1"], [false, 0]]}',
     "field R1"),
    ('{"R1": [[]], "R2": [[]]}', "need at least one action per player"),
], ids=["directory", "list", "missing_R2", "ragged_R1", "not_json",
        "one_dimensional", "out_of_range", "string_reward", "boolean_reward",
        "string_and_boolean_rewards", "no_columns"])
def test_malformed_game_file_is_one_line(tmp_path, capsys, content, says):
    path = tmp_path / "game.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    code, out, err = run_cli(capsys, "solve", "--game", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    if says is not None:
        assert says in err
    if content is None:
        assert err == f"error: '{path}' is neither a built-in game nor a file\n"


RECT = {"R1": [[0.5, 0.2], [0.9, 0.1]], "R2": [[0.4, 0.8], [0.3, 0.6]]}


@pytest.mark.parametrize("name", [5, None, "", "a,b", "x/y", 'say "hi"',
                                  "back\\slash", "tab\tname", "nl\nname",
                                  "g\ud800"],
                         ids=["number", "null", "empty", "comma", "slash",
                              "quote", "backslash", "tab", "newline",
                              "lone_surrogate"])
def test_game_name_reaching_outputs_is_checked(tmp_path, capsys, name):
    # each used to reach a traceback, an unreadable CSV or a failed write
    # after every match had been played
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"name": name, **RECT}))
    out_dir = tmp_path / "out"
    for argv in (["solve", "--game", str(path)],
                 ["regret", "--game", str(path), "--p2", "bully",
                  "--opp-class", "adversarial", "--T", "20", "--seeds", "1",
                  "--out", str(out_dir)],
                 ["tournament", "--algorithms", "fixed:0,fixed:1",
                  "--games", str(path), "--trials", "1", "--T", "20",
                  "--out", str(out_dir)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv[0]
        assert out == ""
        assert err.startswith(f"error: {path}: field name ")
        assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["<", "&", "a<b & c>"])
def test_svg_text_is_escaped(tmp_path, capsys, name):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"name": name, **RECT}))
    code, _, _ = run_cli(capsys, "regret", "--game", str(path), "--p1", "bully",
                         "--p2", "fixed:0", "--opp-class", "adversarial",
                         "--T", "20", "--seeds", "1", "--out", str(tmp_path),
                         "--svg")
    assert code == 0
    svg = tmp_path / f"regret_{name}_bully_vs_fixed:0.svg"
    texts = [e.text for e in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert f"{name}: bully vs fixed:0" in texts

    # algorithm names from a hand-edited tournament CSV reach the plot too
    csv = tmp_path / "pair.csv"
    csv.write_text("alg1,alg2,game,trial,m1,m2\n"
                   + "".join(f"{a},{b},g,0,0.5,0.5\n"
                             for a in (name, "z") for b in (name, "z")))
    pop = tmp_path / "population.csv"
    code, _, _ = run_cli(capsys, "replicator", "--input", str(csv),
                         "--generations", "3", "--runs", "1", "--out", str(pop),
                         "--svg")
    assert code == 0
    texts = [e.text for e in ET.parse(pop.with_suffix(".svg"))
             .iter("{http://www.w3.org/2000/svg}text")]
    assert name in texts


PINNED_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" viewBox="0 0 640 400">
<rect width="640" height="400" fill="white"/>
<line x1="50" y1="350" x2="590" y2="350" stroke="black"/>
<line x1="50" y1="50" x2="50" y2="350" stroke="black"/>
<text x="320.0" y="20" text-anchor="middle" font-size="14">regret &lt;laff&gt; &amp; co</text>
<text x="50" y="366" font-size="10">1</text>
<text x="590" y="366" text-anchor="end" font-size="10">13</text>
<text x="46" y="350" text-anchor="end" font-size="10">-0.35</text>
<text x="46" y="50" text-anchor="end" font-size="10">0.9</text>
<polyline points="50.00,242.00 95.00,350.00 140.00,186.00 230.00,197.43 365.00,50.00 590.00,265.76" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
<text x="586" y="62" text-anchor="end" font-size="11" fill="#1f77b4">a&lt;b</text>
<polyline points="50.00,146.00 95.00,206.00 140.00,236.00 230.00,346.00 365.00,266.00 590.00,98.00" fill="none" stroke="#ff7f0e" stroke-width="1.5"/>
<text x="586" y="76" text-anchor="end" font-size="11" fill="#ff7f0e">c &amp; d</text>
</svg>
"""


def test_svg_bytes_are_pinned(tmp_path):
    # pins the polyline's pixel rounding and the escaped title and legend
    path = tmp_path / "plot.svg"
    svg_line_plot(path, [1, 2, 3, 5, 8, 13],
                  {"a<b": [0.1, -0.35, 1 / 3, 2 / 7, 0.9, 1e-3],
                   "c & d": [0.5, 0.25, 0.125, -1 / 3, 0.0, 0.7]},
                  title="regret <laff> & co")
    assert path.read_text() == PINNED_SVG


FLOAT_CELLS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.5e-310, 1e300,
     -1e300, 0.1, 1 / 3])
COLUMNS = {
    "int64": st.integers(-2 ** 63, 2 ** 63 - 1),
    "bool": st.booleans(),
    "float64": FLOAT_CELLS,
    "str": st.text(st.characters(exclude_categories=("Cs",),
                                 exclude_characters=",\n\r")),
    "int": st.integers(-10 ** 30, 10 ** 30),
}


@st.composite
def _columns(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=6))
    cols = []
    for kind in kinds:
        cells = draw(st.lists(COLUMNS[kind], min_size=n, max_size=n))
        cols.append(cells if kind in ("str", "int") else np.array(cells, dtype=kind))
    return cols


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_columns())
def test_write_csv_matches_the_per_cell_writer(tmp_path_factory, columns):
    out = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(out / "columns.csv", header, columns)
    write_csv_rows(out / "rows.csv", header, zip(*columns))
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


@pytest.mark.parametrize("flag", ["--delta", "--C1", "--C3", "--C4", "--eta-m"])
def test_removed_tuning_flags_are_usage_errors(capsys, flag):
    code, out, _ = run_cli(capsys, "match", "--game", "chicken", "--p1", "laff",
                           "--p2", "bully", "--T", "10", flag, "0.1")
    assert code == 2
    assert out == ""


def test_benchmark_horizon_flag_is_gone(capsys):
    # benchmark plays no match, so --T used to be accepted and ignored
    code, out, _ = run_cli(capsys, "benchmark", "--game", "chicken",
                           "--opponent", "egal", "--T", "5")
    assert code == 2
    assert out == ""


def test_regret_player_flag_is_gone(tmp_path, capsys):
    # regret scores player 1 against player 1's benchmark; --player 2 used
    # to score player 2's rewards against that same benchmark
    code, out, _ = run_cli(capsys, "regret", "--game", "asym_unfair",
                           "--p2", "ftft", "--opp-class", "follower_conditional",
                           "--T", "50", "--seeds", "1", "--player", "2",
                           "--out", str(tmp_path))
    assert code == 2
    assert out == ""


def test_runtime_error_is_one_line(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("multichain gain LP failed: infeasible")

    monkeypatch.setattr("laff.cli.benchmark_for", fail)
    code, out, err = run_cli(capsys, "benchmark", "--game", "chicken",
                             "--opponent", "bully")
    assert code == 2
    assert out == ""
    assert err == "error: multichain gain LP failed: infeasible\n"


def test_seed_flag_defaults_to_zero(tmp_path, capsys):
    outs = {}
    for name, flags in (("default", []), ("zero", ["--seed", "0"]),
                        ("flag", ["--seed", "123"])):
        trace = tmp_path / f"{name}.csv"
        argv = ["match", "--game", "chicken", "--p1", "qlearn",
                "--p2", "qlearn", "--T", "500", "--trace", str(trace), *flags]
        assert main(argv) == 0
        capsys.readouterr()
        outs[name] = trace.read_bytes()
    assert outs["default"] == outs["zero"] != outs["flag"]


def test_benchmark_subcommand(capsys):
    code, out, _ = run_cli(capsys, "benchmark", "--game", "chicken",
                           "--opponent", "ftft")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_star"] == pytest.approx(0.625, abs=1e-6)
    assert doc["mu_s1"] == pytest.approx(0.25)
    assert doc["mu_b1"] == pytest.approx(1.0)


@pytest.mark.parametrize("game, opponent, lps", [
    ("cyclic", "bully", 4),    # both seats' kits: 2 security + 2 punishment
    ("cyclic", "maximin", 3),  # seat 1's kit; the opponent reads its security LP
    ("chicken", "bully", 2),   # symmetric: the seats' LPs are the same matrices
])
def test_benchmark_solves_each_distinct_lp_once(capsys, lp_calls, game,
                                                opponent, lps):
    code, _, _ = run_cli(capsys, "benchmark", "--game", game,
                         "--opponent", opponent, "--K", "2")
    assert code == 0
    assert len(lp_calls) == lps


@pytest.mark.parametrize("game, lps, solves", [
    ("chicken", 2, 0),     # every LP matrix has a pure saddle point
    ("cyclic", 4, 2),      # player 1's security and punishment LPs mix
    ("sym_biased", 2, 2),  # symmetric, and both of its LPs mix
])
def test_benchmark_runs_highs_only_without_a_saddle_point(
        capsys, lp_calls, mixed_solves, game, lps, solves):
    # the mixed solves are the exact kernel's, which took HiGHS's place
    code, _, _ = run_cli(capsys, "benchmark", "--game", game,
                         "--opponent", "bully", "--K", "2")
    assert code == 0
    assert len(lp_calls) == lps
    assert len(mixed_solves) == solves


def test_regret_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "regret", "--game", "chicken",
                           "--p1", "laff", "--p2", "qlearn",
                           "--opp-class", "follower_unconditional",
                           "--T", "1000", "--seeds", "2", "--stride", "100",
                           "--out", str(tmp_path), "--svg")
    assert code == 0
    csv = tmp_path / "regret_chicken_qlearn.csv"
    assert csv.exists()
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,avg_regret"
    assert len(lines) == 11
    assert (tmp_path / "regret_chicken_qlearn.svg").exists()


def test_regret_output_names_p1(tmp_path, capsys):
    # the name used to leave out --p1, so the second run overwrote the first
    for p1 in ("laff", "bully"):
        code, out, _ = run_cli(capsys, "regret", "--game", "chicken",
                               "--p1", p1, "--p2", "qlearn",
                               "--opp-class", "follower_unconditional",
                               "--T", "50", "--seeds", "1", "--out", str(tmp_path))
        assert code == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "regret_chicken_bully_vs_qlearn.csv", "regret_chicken_qlearn.csv"]


def test_tournament_and_replicator(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "tournament",
                           "--algorithms", "fixed:0,fixed:1",
                           "--games", "chicken,asym_biased",
                           "--trials", "2", "--T", "200",
                           "--seed", "3", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "learning_game.csv").exists()
    pair_csv = tmp_path / "pair_game_trial.csv"
    assert pair_csv.exists()

    pop = tmp_path / "population.csv"
    code, out, _ = run_cli(capsys, "replicator", "--input", str(pair_csv),
                           "--generations", "50", "--runs", "5",
                           "--seed", "0", "--out", str(pop), "--svg")
    assert code == 0
    lines = pop.read_text().splitlines()
    assert len(lines) == 52
    header = lines[0].split(",")
    assert header[0] == "generation"
    last = [float(x) for x in lines[-1].split(",")[1:3]]
    assert sum(last) == pytest.approx(1.0, abs=1e-6)
    assert pop.with_suffix(".svg").exists()


def test_tournament_jobs_deterministic(tmp_path, capsys):
    # parallel scheduling must not change any output byte
    outs = []
    for k, jobs in enumerate(("1", "2")):
        out = tmp_path / f"j{jobs}"
        code, _, _ = run_cli(capsys, "tournament",
                             "--algorithms", "bully,qlearn",
                             "--games", "chicken", "--trials", "2",
                             "--T", "400", "--seed", "5",
                             "--jobs", jobs, "--out", str(out))
        assert code == 0
        outs.append((out / "learning_game.csv").read_bytes()
                    + (out / "pair_game_trial.csv").read_bytes())
    assert outs[0] == outs[1]


def test_float_formatting_ten_significant_digits(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    run_cli(capsys, "match", "--game", "chicken", "--p1", "qlearn",
            "--p2", "qlearn", "--T", "50", "--seed", "0",
            "--trace", str(trace))
    row = trace.read_text().splitlines()[1].split(",")
    x = row[5]
    assert len(x.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 12
    assert float(x) == pytest.approx(float(x), abs=0)


@pytest.mark.parametrize("agents, message", [
    (["--p1", "qlearn", "--p2", "ftft", "--p2-params", '{"p": 5}'],
     "error: parameter 'p' of agent 'ftft' must lie in [0, 1], got 5\n"),
    (["--p1", "qlearn", "--p2", "ftft", "--p2-params", '{"prob": 0.4}'],
     "error: agent 'ftft' has no parameter 'prob' (accepted: p)\n"),
    (["--p1", "fixed:0", "--p1-params", '{"weight": 7}', "--p2", "qlearn"],
     "error: parameter 'weight' of agent 'fixed:0' must lie in [0, 1], got 7\n"),
    (["--p1", "martian", "--p2", "qlearn"],
     "error: unknown agent 'martian'; choose from ('laff', 'bully', 'ftft', "
     "'qlearn', 'fp', 'manipulator', 'egal', 'maximin') or fixed:<a>\n"),
    (["--p1", "qlearn", "--p1-params", "{bad", "--p2", "ftft"],
     "error: --p1-params is not JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)\n"),
    (["--p1", "qlearn", "--p2", "ftft", "--p2-params", '{"p": 0.1'],
     "error: --p2-params is not JSON: Expecting ',' delimiter: line 1 column 10 "
     "(char 9)\n"),
], ids=["ftft_p_out_of_range", "ftft_unknown_key", "fixed_weight_out_of_range",
        "unknown_agent", "p1_not_json", "p2_not_json"])
def test_match_rejects_bad_agent_params(capsys, agents, message):
    code, out, err = run_cli(capsys, "match", "--game", "chicken",
                             "--T", "50", *agents)
    assert code == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize("action", ["-1", "5"])
def test_benchmark_rejects_fixed_action_outside_seat(capsys, action):
    # -1 used to index the last action and 5 to raise an IndexError
    code, out, err = run_cli(capsys, "benchmark", "--game", "chicken",
                             "--opponent", f"fixed:{action}")
    assert code == 2
    assert out == ""
    assert err == (f"error: fixed:{action} is not an action of player 2; "
                   f"choose 0..1\n")


def _pair_csv_lines(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "tournament", "--algorithms", "fixed:0,fixed:1",
                         "--games", "chicken", "--trials", "2", "--T", "20",
                         "--seed", "1", "--out", str(tmp_path))
    assert code == 0
    return (tmp_path / "pair_game_trial.csv").read_text().splitlines()


@pytest.mark.parametrize("damage, message", [
    ("negative_trial", "{csv}:2: need a trial >= 0 and m1, m2 in [0, 1], got "
                       "'fixed:0,fixed:0,chicken,-1,0.5,0.5'"),
    ("missing_row", "{csv} has no row for fixed:0 vs fixed:0 on chicken, trial 0"),
    ("nan_reward", "{csv}:2: need a trial >= 0 and m1, m2 in [0, 1], got "
                   "'fixed:0,fixed:0,chicken,0,nan,nan'"),
    ("huge_trial", "{csv} has no row for fixed:0 vs fixed:0 on chicken, trial 0"),
    ("bad_trial", "{csv}:2: expected alg1,alg2,game,trial,m1,m2 with an integer "
                  "trial, got 'fixed:0,fixed:0,chicken,x,0.5,0.5'"),
    ("out_of_range", "{csv}:2: need a trial >= 0 and m1, m2 in [0, 1], got "
                     "'fixed:0,fixed:0,chicken,0,1.5,0.5'"),
    ("duplicate_row", "{csv}:3: a second row for fixed:0 vs fixed:0 on chicken, "
                      "trial 0"),
    # line 1 used to be skipped unread: without it the first data row was
    # lost, and any other header was accepted
    ("no_header", "{csv}:1: expected the header alg1,alg2,game,trial,m1,m2, "
                  "got '{row}'"),
    ("wrong_header", "{csv}:1: expected the header alg1,alg2,game,trial,m1,m2, "
                     "got 'x,y,z,w,u,v'"),
    ("empty_alg", "{csv}:2: alg1, alg2 and game must not be empty, got "
                  "',fixed:0,chicken,0,0.5,0.5'"),
    ("empty_game", "{csv}:2: alg1, alg2 and game must not be empty, got "
                   "'fixed:0,fixed:0,,0,0.5,0.5'"),
    ("header_only", "{csv} has no data rows"),
], ids=["negative_trial", "missing_row", "nan_reward", "huge_trial", "bad_trial",
        "out_of_range", "duplicate_row", "no_header", "wrong_header", "empty_alg",
        "empty_game", "header_only"])
def test_replicator_rejects_malformed_csv(tmp_path, capsys, damage, message):
    lines = _pair_csv_lines(tmp_path, capsys)
    assert lines[1].startswith("fixed:0,fixed:0,chicken,0,")
    row = lines[1]
    first = row.split(",")
    if damage == "negative_trial":
        lines[1] = ",".join(first[:3] + ["-1"] + first[4:])
    elif damage == "missing_row":
        del lines[1]
    elif damage == "nan_reward":
        lines[1] = ",".join(first[:4] + ["nan", "nan"])
    elif damage == "out_of_range":
        lines[1] = ",".join(first[:4] + ["1.5", "0.5"])
    elif damage == "duplicate_row":
        # a second row for a cell used to overwrite the first
        lines.insert(2, lines[1])
    elif damage == "huge_trial":
        # would need terabytes if the cell array were allocated first
        lines[1] = ",".join(first[:3] + [str(10 ** 12)] + first[4:])
    elif damage == "no_header":
        del lines[0]
    elif damage == "wrong_header":
        lines[0] = "x,y,z,w,u,v"
    elif damage == "empty_alg":
        lines[1] = ",fixed:0,chicken,0,0.5,0.5"
    elif damage == "empty_game":
        lines[1] = "fixed:0,fixed:0,,0,0.5,0.5"
    elif damage == "header_only":
        del lines[1:]
    else:
        lines[1] = "fixed:0,fixed:0,chicken,x,0.5,0.5"
    csv = tmp_path / "broken.csv"
    csv.write_text("\n".join(lines) + "\n")
    pop = tmp_path / "population.csv"
    code, out, err = run_cli(capsys, "replicator", "--input", str(csv),
                             "--generations", "5", "--runs", "2",
                             "--out", str(pop))
    assert code == 2
    assert out == ""
    assert err == "error: " + message.format(csv=csv, row=row) + "\n"
    assert not pop.exists()


@pytest.mark.parametrize("flags, message", [
    (["--algorithms", "fixed:0,fixed:0", "--games", "chicken"],
     "algorithm names; 'fixed:0'"),
    (["--algorithms", "fixed:0,fixed:1", "--games", "chicken,cyclic,chicken"],
     "game names; 'chicken'"),
    (["--algorithms", "fixed:0,fixed:1", "--games", "{dir}/a.json,{dir}/b.json"],
     "game names; 'g'"),
    (["--algorithms", "fixed:0,fixed:1", "--games", "chicken,{dir}/chicken.json"],
     "game names; 'chicken'"),
], ids=["algorithms", "games", "files_named_g", "file_named_chicken"])
def test_tournament_rejects_repeated_names(tmp_path, capsys, flags, message):
    # a repeated entrant or game name used to write duplicate rows, which the
    # replicator then merged into one
    for stem, name in (("a", "g"), ("b", "g"), ("chicken", "chicken")):
        (tmp_path / f"{stem}.json").write_text(json.dumps(
            {"name": name, "R1": [[0.5, 0.0], [1.0, 0.25]],
             "R2": [[0.5, 1.0], [0.0, 0.25]]}))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "tournament",
                             *[f.format(dir=tmp_path) for f in flags],
                             "--trials", "1", "--T", "20", "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == (f"error: a round robin needs distinct {message} occurs more "
                   f"than once\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["regret", "--game", "chicken", "--p2", "bully", "--opp-class",
      "adversarial", "--T", "20", "--seeds", "0", "--out", "{out}"],
     "--seeds must be >= 1, got 0"),
    (["regret", "--game", "chicken", "--p2", "bully", "--opp-class",
      "adversarial", "--T", "20", "--stride", "0", "--out", "{out}"],
     "--stride must be >= 1, got 0"),
    (["regret", "--game", "chicken", "--p2", "bully", "--opp-class",
      "adversarial", "--T", "20", "--stride", "-3", "--out", "{out}"],
     "--stride must be >= 1, got -3"),
    (["tournament", "--algorithms", "fixed:0,fixed:1", "--games", "chicken",
      "--T", "20", "--trials", "0", "--out", "{out}"],
     "--trials must be >= 1, got 0"),
    (["tournament", "--algorithms", "fixed:0,fixed:1", "--games", "chicken",
      "--T", "20", "--jobs", "-4", "--out", "{out}"],
     "--jobs must be >= 1, got -4"),
    (["replicator", "--generations", "-1", "--runs", "2",
      "--out", "{out}/population.csv"],
     "--generations must be >= 0, got -1"),
    (["replicator", "--generations", "5", "--runs", "0",
      "--out", "{out}/population.csv"],
     "--runs must be >= 1, got 0"),
    # a negative seed used to fail in numpy with "expected non-negative
    # integer", which names no flag, and the replicator created --out first
    (["match", "--game", "chicken", "--p1", "laff", "--p2", "fp", "--T", "10",
      "--seed", "-1", "--trace", "{out}"],
     "seed must be >= 0, got -1"),
    (["benchmark", "--game", "chicken", "--opponent", "bully", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["regret", "--game", "chicken", "--p2", "bully", "--opp-class",
      "adversarial", "--T", "20", "--seed", "-1", "--out", "{out}"],
     "seed must be >= 0, got -1"),
    (["tournament", "--algorithms", "fixed:0,fixed:1", "--games", "chicken",
      "--T", "20", "--seed", "-1", "--out", "{out}"],
     "seed must be >= 0, got -1"),
    (["replicator", "--seed", "-1", "--out", "{out}/population.csv"],
     "--seed must be >= 0, got -1"),
], ids=["regret_seeds", "regret_stride_zero", "regret_stride_negative",
        "tournament_trials", "tournament_jobs", "replicator_generations",
        "replicator_runs", "match_seed", "benchmark_seed", "regret_seed",
        "tournament_seed", "replicator_seed"])
def test_out_of_range_counts_are_rejected(tmp_path, capsys, argv, message):
    # these used to raise IndexError, write all-nan CSVs or silently run with
    # a count of 1
    if argv[0] == "replicator":
        lines = _pair_csv_lines(tmp_path, capsys)
        csv = tmp_path / "pair.csv"
        csv.write_text("\n".join(lines) + "\n")
        argv = argv + ["--input", str(csv)]
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, *[a.format(out=out_dir) for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("algorithms, message", [
    ("laff,qlearn,martian", "unknown agent 'martian'; choose from"),
    ("laff,fixed:7", "fixed:7 is not an action of player 1; choose 0..1"),
], ids=["unknown", "fixed_outside_2x2"])
def test_tournament_rejects_bad_entrant_before_any_match(tmp_path, capsys,
                                                          monkeypatch,
                                                          algorithms, message):
    # a bad entrant used to fail at its first match, after every match before it
    def no_match(*args):
        raise AssertionError("a match was played")

    monkeypatch.setattr(laff.evaluation, "run_match", no_match)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "tournament", "--algorithms", algorithms,
                             "--games", "chicken,cyclic", "--trials", "2",
                             "--T", "20000", "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["solve", "--game", "chicken"],
    ["match", "--game", "chicken", "--p1", "laff", "--p2", "bully", "--T", "20"],
    ["benchmark", "--game", "chicken", "--opponent", "bully"],
    ["regret", "--game", "chicken", "--p2", "bully", "--opp-class",
     "adversarial", "--T", "10", "--seeds", "1"],
], ids=["solve", "match", "benchmark", "regret"])
def test_non_finite_eps_is_rejected(tmp_path, capsys, argv, eps):
    # nan used to fail deep in punishment_length, and inf to run or to print
    # "eps": Infinity, which is not JSON
    out_dir = tmp_path / "out"
    if argv[0] == "regret":
        argv = argv + ["--out", str(out_dir)]
    code, out, err = run_cli(capsys, *argv, "--eps", eps)
    assert code == 2
    assert out == ""
    assert err == f"error: enforceability slack eps must be finite and > 0, got {eps}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["benchmark", "--opponent", "qlearn"],
     "'qlearn' is not a bounded-memory opponent kind"),
    (["regret", "--p2", "qlearn", "--opp-class", "bounded_memory"],
     "'qlearn' is not a bounded-memory opponent kind"),
    (["regret", "--p2", "martian", "--opp-class", "adversarial"],
     "unknown agent 'martian'; choose from ('laff', 'bully', 'ftft', 'qlearn', "
     "'fp', 'manipulator', 'egal', 'maximin') or fixed:<a>"),
    (["match", "--p1", "nosuch", "--p2", "qlearn"],
     "unknown agent 'nosuch'; choose from ('laff', 'bully', 'ftft', 'qlearn', "
     "'fp', 'manipulator', 'egal', 'maximin') or fixed:<a>"),
], ids=["benchmark_not_markov", "regret_not_markov", "regret_unknown", "match_unknown"])
def test_bad_opponent_is_rejected_before_any_output(tmp_path, capsys, argv, message):
    # regret used to create its --out directory before it checked --p2, and
    # match its --trace file before it checked --p1
    out_dir, trace = tmp_path / "out", tmp_path / "t.csv"
    if argv[0] == "regret":
        argv = argv + ["--T", "10", "--seeds", "1", "--out", str(out_dir)]
    if argv[0] == "match":
        argv = argv + ["--T", "10", "--trace", str(trace)]
    code, out, err = run_cli(capsys, argv[0], "--game", "chicken", *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists() and not trace.exists()


@pytest.mark.parametrize("argv", [
    ["match", "--p1", "bully", "--p2", "qlearn", "--T", "10"],
    ["benchmark", "--opponent", "fixed:0"],
], ids=["match", "benchmark"])
def test_leader_tables_past_the_state_budget_are_refused_first(capsys, argv):
    # K=12 gives chicken 2**50 state codes, whose play table used to end in
    # numpy's MemoryError for 8 PiB
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv[0], "--game", "chicken", "--K", "12",
                                 *argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == ("error: K=12 gives game 'chicken' 1125899906842624 state codes, "
                   "above the leaders' budget of 4194304\n")
    assert peak < 2 ** 20


def test_induced_mdp_past_the_state_budget_is_refused_first(capsys):
    # K=4 gives asym_secondbest vs bully 62,208 reachable states, whose dense
    # (S, A, S) tensor would take 62 GB; exploring up to the budget takes little
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "benchmark", "--game", "asym_secondbest",
                                 "--opponent", "bully", "--K", "4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == "error: K=4 gives the induced MDP over 6000 states\n"
    assert peak < 100 * 2 ** 20


def test_learner_matches_build_no_table_and_have_no_state_budget(capsys):
    code, out, _ = run_cli(capsys, "match", "--game", "chicken", "--p1", "qlearn",
                           "--p2", "fp", "--T", "10", "--K", "12")
    assert code == 0
    assert json.loads(out)["T"] == 10


def test_readme_command_lines_parse():
    # every `laff ...` line in README's bash blocks, continuations joined,
    # is accepted by the parser, and together they cover every subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
    lines = [line.strip() for block in blocks
             for line in block.replace("\\\n", " ").splitlines()
             if line.strip().startswith("laff ")]
    parser = build_parser()
    commands = set()
    for line in lines:
        try:
            commands.add(parser.parse_args(shlex.split(line)[1:]).command)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
    assert commands == {"solve", "benchmark", "match", "regret", "tournament",
                        "replicator"}


@pytest.mark.parametrize("argv", [
    ["regret", "--game", "chicken", "--p2", "bully", "--opp-class",
     "adversarial", "--T", "20", "--seeds", "1", "--out", "{file}"],
    ["tournament", "--algorithms", "fixed:0,fixed:1", "--games", "chicken",
     "--trials", "1", "--T", "20", "--out", "{file}"],
    ["match", "--game", "chicken", "--p1", "bully", "--p2", "qlearn",
     "--T", "20", "--trace", "{dir}"],
    ["replicator", "--input", "{dir}", "--generations", "3", "--runs", "1",
     "--out", "{dir}/population.csv"],
], ids=["regret_out_is_a_file", "tournament_out_is_a_file",
        "match_trace_is_a_directory", "replicator_input_is_a_directory"])
def test_unusable_path_is_one_line(tmp_path, capsys, argv):
    # each of these used to end in an OSError traceback
    (tmp_path / "file").write_text("kept\n")
    argv = [a.format(file=tmp_path / "file", dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["regret", "--game", "chicken", "--p2", "qlearn", "--opp-class",
     "follower_unconditional", "--T", "20000", "--seeds", "3", "--out", "{out}"],
    ["tournament", "--algorithms", "laff,qlearn", "--games", "chicken,cyclic",
     "--trials", "2", "--T", "20000", "--out", "{out}"],
    ["match", "--game", "chicken", "--p1", "laff", "--p2", "qlearn",
     "--T", "200000", "--trace", "{dir}"],
    ["replicator", "--input", "{csv}", "--generations", "20000", "--runs", "50",
     "--out", "{out}/population.csv"],
], ids=["regret", "tournament", "match_trace", "replicator"])
def test_unusable_out_fails_before_any_match(tmp_path, capsys, monkeypatch, argv):
    # --out used to be created only after every match had been played, the
    # trace written only after the match and the replicator's --out parent
    # only after every generation
    def no_match(*args, **kwargs):
        raise AssertionError("a match was played")

    for work in ("play_match", "round_robin", "replicator_run"):
        monkeypatch.setattr(f"laff.cli.{work}", no_match)
    out, csv = tmp_path / "out", tmp_path / "pair_game_trial.csv"
    out.write_text("")
    csv.write_text("alg1,alg2,game,trial,m1,m2\nlaff,laff,chicken,0,0.5,0.5\n")
    argv = [a.format(dir=tmp_path, csv=csv, out=out) for a in argv]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    if argv[0] == "match":
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    else:
        assert err == f"error: [Errno 17] File exists: '{out}'\n"
