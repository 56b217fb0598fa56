import os
import subprocess
import sys
from pathlib import Path

import pytest

import laff

# the program prints whether scipy.optimize is loaded after running argv
_PROBE = """
import sys
from laff.cli import main
argv = sys.argv[1:]
assert not argv or main(argv) == 0
print("scipy.optimize" in sys.modules)
"""


def test_public_names_resolve():
    # guards __all__ against names the package no longer defines
    for name in laff.__all__:
        assert getattr(laff, name) is not None, name
    namespace = {}
    exec("from laff import *", namespace)
    assert set(laff.__all__) <= set(namespace)


@pytest.mark.parametrize("argv, loaded", [
    ([], False),  # import laff.cli
    (["regret", "--game", "chicken", "--p1", "laff", "--p2", "qlearn",
      "--opp-class", "follower_unconditional", "--K", "2", "--seeds", "1",
      "--T", "200"], False),  # chicken's LPs all have pure saddle points
    (["solve", "--game", "cyclic"], True),  # cyclic's are mixed
], ids=["import", "regret_chicken", "solve_cyclic"])
def test_scipy_optimize_is_imported_only_for_a_mixed_lp(tmp_path, argv, loaded):
    # run in tmp_path, where regret writes its default out/ directory
    src = str(Path(laff.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == str(loaded)
