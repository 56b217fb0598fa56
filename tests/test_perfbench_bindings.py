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

from laff import MatchConfig, builtin_game  # noqa: E402
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
