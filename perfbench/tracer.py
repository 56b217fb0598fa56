"""Per-layer timing of `laff`, from outside the package.

`Tracer.install()` replaces the public functions of each module at the names
their callers bind (for example `laff.evaluation.run_match`, which is what
`play_match` looks up) with timing wrappers; `uninstall()` puts the
originals back, so later untraced measurements in the same process pay
nothing.  Nothing under `src/` changes.

Coarse calls (CLI commands, matches, agent construction, kit builds,
solvers, LPs, MDP induction and solution, the replicator, CSV writes) are
kept as spans in memory: name, layer, start, end, parent and the command
they belong to.  Per-step agent calls (`act`, `observe`, `report_weight`)
are too many for spans; they are kept as a count and a total per class.
A layer's self time is its spans' time minus the time of their children.
Each wrapped call also costs its caller some time outside the child's timed
interval (the call into the wrapper, the frame bookkeeping); `install()`
measures that cost on a no-op and leaves it out of the caller's self time,
so that self time holds the caller's own work and not the tracer's.
"""

from __future__ import annotations

import json
import math
import statistics
import tracemalloc
from pathlib import Path
from time import perf_counter

import laff.cli
import laff.evaluation
import laff.experts
import laff.bargaining
from laff.controller import Laff
from laff.engine import FixedActionAgent
from laff.experts import LeaderKit
from laff.mdp import InducedMdp
from laff.opponents import (EpsGreedyQAgent, FictitiousPlayAgent, LeaderOpponent,
                            ManipulatorAgent, MaximinAgent)

LAYERS = ("games", "bargaining", "experts", "controller", "opponents",
          "engine", "mdp", "evaluation", "cli")

# (module, attribute, layer): every binding a caller inside laff looks up.
COARSE = [
    (laff.cli, "write_csv", "cli"),
    (laff.cli, "load_game", "games"),
    (laff.cli, "play_match", "evaluation"),
    (laff.evaluation, "play_match", "evaluation"),
    (laff.cli, "round_robin", "evaluation"),
    (laff.cli, "regret_curve", "evaluation"),
    (laff.cli, "benchmark_for", "evaluation"),
    (laff.cli, "replicator_run", "evaluation"),
    (laff.cli, "bounded_memory_policy", "opponents"),
    (laff.evaluation, "build_agent", "opponents"),
    (laff.evaluation, "run_match", "engine"),
    (laff.evaluation, "induce_mdp", "mdp"),
    (laff.evaluation, "optimal_average_reward", "mdp"),
    (laff.cli, "enforceable_ebs", "bargaining"),
    (laff.cli, "bully_solution", "bargaining"),
    (laff.evaluation, "enforceable_ebs", "bargaining"),
    (laff.evaluation, "bully_solution", "bargaining"),
    (laff.experts, "enforceable_ebs", "bargaining"),
    (laff.experts, "bully_solution", "bargaining"),
    (laff.cli, "security_value", "games"),
    (laff.evaluation, "security_value", "games"),
    (laff.experts, "security_value", "games"),
    (laff.bargaining, "security_value", "games"),
    (laff.experts, "punishment_strategy", "games"),
]

# agent class -> (metric prefix, layer); methods are timed in aggregate.
AGENTS = {
    Laff: ("controller", "controller"),
    EpsGreedyQAgent: ("opponents.qlearn", "opponents"),
    FictitiousPlayAgent: ("opponents.fp", "opponents"),
    LeaderOpponent: ("opponents.leader", "opponents"),
    MaximinAgent: ("opponents.maximin", "opponents"),
    ManipulatorAgent: ("opponents.manipulator", "opponents"),
    FixedActionAgent: ("opponents.fixed", "engine"),
}
AGENT_METHODS = ("act", "observe", "report_weight")

LP_SPANS = ("security_value", "punishment_strategy")
SOLVE_SPANS = ("enforceable_ebs", "bully_solution")


class Tracer:
    """Spans and aggregates for one traced iteration at a time."""

    def __init__(self):
        self._saved = []
        self.track_alloc = False
        self.span_cost = self.agg_cost = 0.0   # seconds per wrapped call, see install()
        self.agg = {}                 # (agent class, method) -> [calls, total_s, child_s]
        self._stack = [[0.0, None]]   # open frames: [child time, span id]
        self.reset()

    def reset(self):
        """Forget the last iteration; the installed wrappers keep working."""
        self.spans = []          # (command, id, parent, name, layer, t0, t1, self_s)
        for acc in self.agg.values():
            acc[:] = [0, 0.0, 0.0]
        del self._stack[1:]
        self._stack[0][0] = 0.0
        self.kit_keys = []
        self.steps = 0
        self.write_rows = 0
        self.switches = 0
        self.states = 0
        self.reachable = 0
        self.replicator_gens = 0
        self.peak_alloc = 0
        self._command = None

    # -- installing and removing wrappers ---------------------------------

    def install(self):
        self.span_cost = self.agg_cost = 0.0
        span_cost = self._call_cost(self._span("noop", "cli", _noop))
        self.agg_cost = self._call_cost(self._aggregate(None, None, _noop))
        self.span_cost = span_cost
        del self.agg[(None, None)]
        for module, attr, layer in COARSE:
            fn = getattr(module, attr)
            self._saved.append((module, attr, module.__dict__[attr]))
            setattr(module, attr, self._span(attr, layer, fn))
        build = LeaderKit.__dict__["build"]
        self._saved.append((LeaderKit, "build", build))
        LeaderKit.build = classmethod(self._span("LeaderKit.build", "experts",
                                                 build.__func__))
        reach = InducedMdp.__dict__["reachable_from_initial"]
        self._saved.append((InducedMdp, "reachable_from_initial", reach))
        InducedMdp.reachable_from_initial = self._span(
            "reachable_from_initial", "mdp", reach)
        for cls in AGENTS:
            for meth in AGENT_METHODS:
                self._saved.append((cls, meth, cls.__dict__.get(meth)))
                setattr(cls, meth, self._aggregate(cls, meth, getattr(cls, meth)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:      # the class inherited it; drop our copy
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _call_cost(self, wrapped, calls=2000, repeats=7):
        """Seconds a wrapped call costs its caller outside the child's interval.

        The caller's time for `calls` wrapped no-op calls, minus the time the
        wrapper itself measured inside them, minus the bare loop; the median
        of `repeats` tries.
        """
        frame = [0.0, None]
        self._stack.append(frame)
        costs = []
        try:
            for _ in range(repeats):
                frame[0] = 0.0
                t0 = perf_counter()
                for _ in range(calls):
                    wrapped()
                t1 = perf_counter()
                for _ in range(calls):
                    pass
                loop = perf_counter() - t1
                costs.append((t1 - t0 - frame[0] - loop) / calls)
        finally:
            self._stack.pop()
            self.spans.clear()
        return max(0.0, statistics.median(costs))

    # -- wrappers ---------------------------------------------------------

    def command(self, index, fn, *args):
        """Run one CLI command as the root span of its own trace."""
        self._command = index
        depth = len(self._stack)
        try:
            return self._span("command", "cli", fn)(*args)
        finally:
            del self._stack[depth:]

    def _span(self, name, layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._before(name, args)
            frame = [0.0, len(tracer.spans)]
            parent = tracer._stack[-1][1]
            tracer.spans.append(None)   # reserve the id in call order
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._stack[-1][0] += t1 - t0 + tracer.span_cost
                tracer.spans[frame[1]] = (tracer._command, frame[1], parent, name,
                                          layer, t0, t1, t1 - t0 - frame[0])
            tracer._after(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregate(self, cls, meth, fn):
        acc = self.agg.setdefault((cls, meth), [0, 0.0, 0.0])
        stack = self._stack
        tracer = self

        def wrapper(*args):
            frame = [0.0, None]
            stack.append(frame)
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            stack.pop()
            stack[-1][0] += dt + tracer.agg_cost
            acc[0] += 1
            acc[1] += dt
            acc[2] += frame[0]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # counters read from arguments and results, outside the timed interval
    def _before(self, name, args):
        if name == "LeaderKit.build":
            game, player, ep = args[1:4]
            self.kit_keys.append((game.R1.tobytes(), game.R2.tobytes(),
                                  player, ep.K, ep.eps))
        elif name == "induce_mdp" and self.track_alloc:
            tracemalloc.start()
        elif name == "replicator_run":
            self.replicator_gens += args[1] * args[2]
        elif name == "run_match":
            self.steps += args[3].T

    def _after(self, name, args, result):
        if name == "run_match":
            self.switches += sum(len(a.switch_times) for a in args[1:3]
                                 if isinstance(a, Laff))
        elif name == "induce_mdp":
            self.states += result.n_states
        elif name == "reachable_from_initial":
            self.reachable += len(result)
        elif name == "optimal_average_reward" and tracemalloc.is_tracing():
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        elif name == "write_csv":
            self.write_rows += Path(args[0]).read_bytes().count(b"\n") - 1

    # -- metrics ------------------------------------------------------------

    def counts(self) -> dict:
        """Counters that must repeat exactly from one iteration to the next."""
        spans = self.spans
        return {
            "engine.steps": self.steps,
            "controller.switches": self.switches,
            "experts.leaderkit_build.calls": len(self.kit_keys),
            "experts.leaderkit_build.distinct": len(set(self.kit_keys)),
            "bargaining.solve.calls": sum(s[3] in SOLVE_SPANS for s in spans),
            "games.lp.calls": sum(s[3] in LP_SPANS for s in spans),
            "mdp.states": self.states,
            "mdp.reachable": self.reachable,
            "cli.write_csv.rows": self.write_rows,
            "agent_calls": {f"{c.__name__}.{m}": v[0] for (c, m), v in self.agg.items()},
        }

    def timings(self) -> dict:
        """Per-layer times of the iteration just traced."""
        spans = self.spans

        def total(*names):
            return sum((s[6] - s[5] for s in spans if s[3] in names), 0.0)

        self_s = dict.fromkeys(LAYERS, 0.0)
        for s in spans:
            self_s[s[4]] += s[7]
        per_class = {}
        for (cls, meth), (calls, tot, child) in self.agg.items():
            prefix, layer = AGENTS[cls]
            self_s[layer] += tot - child
            per_class[f"{prefix}.{meth}"] = (calls, tot)

        def us_per_call(key):
            calls, tot = per_class.get(key, (0, 0.0))
            return 1e6 * tot / calls if calls else 0.0

        steps = self.steps
        matches = sorted(1e3 * (s[6] - s[5]) for s in spans if s[3] == "play_match")
        builds = [s[6] - s[5] for s in spans if s[3] == "build_agent"]
        replicator_s = total("replicator_run")
        return {
            "engine.self_us_per_step": 1e6 * self_s["engine"] / steps if steps else 0.0,
            "controller.act_us": us_per_call("controller.act"),
            "controller.observe_us": us_per_call("controller.observe"),
            "opponents.qlearn.act_us": us_per_call("opponents.qlearn.act"),
            "opponents.fp.act_us": us_per_call("opponents.fp.act"),
            "opponents.leader.act_us": us_per_call("opponents.leader.act"),
            "opponents.build_agent_ms": 1e3 * statistics.fmean(builds) if builds else 0.0,
            "experts.leaderkit_build.s": total("LeaderKit.build"),
            "bargaining.solve.s": total(*SOLVE_SPANS),
            "games.lp.s": total(*LP_SPANS),
            "mdp.induce.s": total("induce_mdp"),
            "mdp.solve.s": total("optimal_average_reward"),
            "evaluation.match_ms.p50": _percentile(matches, 0.5),
            "evaluation.match_ms.p90": _percentile(matches, 0.9),
            "evaluation.replicator.s": replicator_s,
            "evaluation.replicator.gens_per_s":
                self.replicator_gens / replicator_s if replicator_s else 0.0,
            "cli.write_csv.s": total("write_csv"),
            **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        }

    def write_spans(self, path: Path, iteration: int):
        """Append this iteration's spans and aggregates as JSON lines."""
        with open(path, "a") as f:
            for s in self.spans:
                cmd, sid, parent, name, layer, t0, t1, self_s = s
                f.write(json.dumps({"iteration": iteration, "command": cmd,
                                    "span": sid, "parent": parent, "name": name,
                                    "layer": layer, "start": t0, "end": t1,
                                    "self_s": self_s}) + "\n")
            for (cls, meth), (calls, tot, child) in self.agg.items():
                f.write(json.dumps({"iteration": iteration,
                                    "aggregate": f"{cls.__name__}.{meth}",
                                    "calls": calls, "total_s": tot,
                                    "self_s": tot - child}) + "\n")


def _noop():
    pass


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 when there is nothing to rank."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
