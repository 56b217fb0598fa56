"""The benchmark's tracer wraps laff functions and classes by name.

`perfbench/tracer.py` binds module attributes (`COARSE`) and agent classes
(`AGENTS`) at import.  A rename or a change in which class `build_agent`
returns would otherwise surface only as a `--trace 1` failure or as layer
metrics that silently read 0.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

from laff import MatchConfig, builtin_game, play_match  # noqa: E402
from laff.experts import MaximinPolicy, TabularQ  # noqa: E402
from laff.opponents import AGENT_NAMES, build_agent  # noqa: E402


def test_coarse_bindings_resolve():
    for module, attr, layer in tracer.COARSE:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        assert layer in tracer.LAYERS


def test_agent_classes_resolve_and_are_built():
    g = builtin_game("chicken")
    cfg = MatchConfig(T=10)
    built = {type(build_agent(name, g, 1, cfg))
             for name in AGENT_NAMES + ("fixed:0",)}
    for cls in tracer.AGENTS:
        assert getattr(sys.modules[cls.__module__], cls.__name__) is cls
        for meth in tracer.AGENT_METHODS:
            assert callable(getattr(cls, meth, None)), f"{cls.__name__}.{meth}"
        assert cls in built, f"build_agent never returns {cls.__name__}"


def test_laffs_own_experts_stay_out_of_the_opponent_metrics():
    # LAFF's follower and maximin experts are the base classes of the zoo's
    # qlearn and maximin agents; the tracer wraps the subclasses only
    bases = (TabularQ, MaximinPolicy)
    own = {(cls, m): getattr(cls, m) for cls in bases for m in tracer.AGENT_METHODS}
    t = tracer.Tracer()
    t.install()
    try:
        for (cls, meth), fn in own.items():
            assert getattr(cls, meth) is fn, f"{cls.__name__}.{meth}"
        t.reset()
        trace = play_match(builtin_game("chicken"), "laff", "fixed:1",
                           MatchConfig(T=2000, seed=0))
        calls = t.counts()["agent_calls"]
    finally:
        t.uninstall()
    # the match ran LAFF's first follower slot and its maximin slot
    assert {1, 6} <= set(trace.expert1.tolist())
    assert calls["Laff.act"] == 2000
    for cls in ("EpsGreedyQAgent", "MaximinAgent"):
        for meth in tracer.AGENT_METHODS:
            assert calls[f"{cls}.{meth}"] == 0, f"{cls}.{meth}"
