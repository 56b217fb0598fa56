import os
import subprocess
import sys
from pathlib import Path

import pytest

import laff

# the program prints whether scipy is loaded after running argv
_PROBE = """
import sys
from laff.cli import main
argv = sys.argv[1:]
assert not argv or main(argv) == 0
print("scipy" in sys.modules)
"""


def test_public_names_resolve():
    # guards __all__ against names the package no longer defines
    for name in laff.__all__:
        assert getattr(laff, name) is not None, name
    namespace = {}
    exec("from laff import *", namespace)
    assert set(laff.__all__) <= set(namespace)


@pytest.mark.parametrize("argv", [
    [],  # import laff.cli
    ["regret", "--game", "chicken", "--p1", "laff", "--p2", "qlearn",
     "--opp-class", "follower_unconditional", "--K", "2", "--seeds", "1",
     "--T", "200"],  # chicken's LPs all have pure saddle points
    ["solve", "--game", "cyclic"],  # cyclic's are mixed: the exact kernel
    ["benchmark", "--game", "cyclic", "--opponent", "maximin", "--K", "2"],
], ids=["import", "regret_chicken", "solve_cyclic", "benchmark_cyclic"])
def test_scipy_is_not_imported_to_solve_or_play_a_game(tmp_path, argv):
    # run in tmp_path, where regret writes its default out/ directory
    src = str(Path(laff.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
