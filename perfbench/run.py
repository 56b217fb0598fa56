"""The laff benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload tournament --seed 3 --seconds 25 --trace 0

Runs the workload's `laff` CLI commands in-process through `laff.cli.main`,
one after the other (a closed loop with one caller, `--jobs 1`), repeating
the whole list for about `--seconds` seconds.  Every command's outputs pass
the correctness gate in `workloads.py`; an operation is one command, and it
fails when it raises, exits non-zero or fails the gate.

With `--trace 0` it reports the end-to-end metrics (medians over the
repeats, with CPU times rescaled to a reference host speed by
`hostspeed.py`; the raw times are printed beside them); with `--trace 1`
it alternates untraced iterations with iterations under the per-layer
tracer of `tracer.py`, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The program is taken
from `src/` beside this directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")
REFERENCE = HERE / "reference.json"

END_TO_END_UNITS = {"cpu_s": "s", "work_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
RAW_UNITS = {"raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_wall_s": "s",
             "raw_setup_cpu_s": "s", "host_slowdown": "ratio"}
PER_LAYER_UNITS = {
    "engine.steps": "count", "engine.self_s": "s", "engine.self_us_per_step": "us",
    "controller.act_us": "us", "controller.observe_us": "us",
    "controller.switches": "count",
    "opponents.qlearn.act_us": "us", "opponents.fp.act_us": "us",
    "opponents.leader.act_us": "us", "opponents.build_agent_ms": "ms",
    "experts.leaderkit_build.calls": "count", "experts.leaderkit_build.distinct": "count",
    "experts.leaderkit_build.s": "s", "experts.leaderkit_build.useful_ratio": "ratio",
    "bargaining.solve.calls": "count", "bargaining.solve.s": "s",
    "games.lp.calls": "count", "games.lp.s": "s",
    "mdp.induce.s": "s", "mdp.solve.s": "s", "mdp.states": "count",
    "mdp.reachable": "count", "mdp.reachable_ratio": "ratio", "mdp.peak_alloc_mb": "MB",
    "evaluation.match_ms.p50": "ms", "evaluation.match_ms.p90": "ms",
    "evaluation.replicator.s": "s", "evaluation.replicator.gens_per_s": "1/s",
    "cli.write_csv.s": "s", "cli.write_csv.rows": "count",
    **{f"{layer}.self_s": "s" for layer in ("games", "bargaining", "experts",
                                            "controller", "opponents", "mdp",
                                            "evaluation", "cli")},
    "trace.overhead_ratio": "ratio",
}
SETUP_SAMPLES = {"full": 9, "tiny": 1}


def import_laff():
    """Import laff from src/ beside the benchmark, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "laff" / "__init__.py").is_file():
        sys.exit(f"perfbench: no laff sources under {src}")
    sys.path.insert(0, str(src))
    import laff
    if Path(laff.__file__).resolve().parent != (src / "laff").resolve():
        sys.exit(f"perfbench: imported laff from {laff.__file__}, not from {src}")


def loadavg_1m():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except OSError:
        return None


def git_revision():
    """The checkout's commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def setup_samples(args, n):
    """(wall, CPU, rescaled CPU) seconds to import laff and build the inputs,
    each in a fresh process."""
    out = []
    for i in range(n):
        probe = WORK / args.workload / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload,
             str(args.seed), args.size, str(probe)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(tuple(float(x) for x in proc.stdout.strip().splitlines()[-1].split()))
    return out


class Runner:
    """Issues the plan's commands and applies the correctness gate."""

    def __init__(self, plan, reference):
        from laff.cli import main
        self.main = main
        self.plan = plan
        self.reference = reference
        self.first = {}          # command index -> fingerprint of its first run
        self.records = {}        # command index -> values the reference keeps
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_mb = None  # after the first iteration's commands, before its gate

    def iteration(self, tracer=None, rescale=False):
        """Run every command once; return (wall s, CPU s, CPU s at reference speed).

        With `rescale` the host's speed is sampled during the commands;
        otherwise the third value is None.
        """
        import workloads
        speed = HostSpeed() if rescale else contextlib.nullcontext()
        with speed:
            c0, t0 = time.process_time(), time.perf_counter()
            done = self._commands(tracer)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # the gate runs after the clock stops, and after the peak is read
        for i, (cmd, stdout, problems) in enumerate(done):
            if not problems:
                problems = self._check(i, cmd, stdout, workloads)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append((" ".join(cmd.argv), problems))
        return wall, cpu, (speed.rescale(cpu) if rescale else None)

    def _commands(self, tracer):
        """Issue each command; return (command, stdout, problems) for each."""
        done = []
        for i, cmd in enumerate(self.plan.commands):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is None:
                        rc = self.main(cmd.argv)
                    else:
                        rc = tracer.command(i, self.main, cmd.argv)
                problems = [f"exit code {rc}: {err.getvalue().strip()}"] if rc else []
            except Exception:
                problems = ["raised:\n" + traceback.format_exc()]
            done.append((cmd, out.getvalue(), problems))
        return done

    def _check(self, i, cmd, stdout, workloads):
        ref = None if self.reference is None else {
            "tolerance": self.reference["tolerance"],
            "values": self.reference["commands"][i]}
        try:
            problems, self.records[i] = workloads.check(self.plan, cmd, stdout, ref)
            fp = workloads.fingerprint(cmd, stdout)
        except Exception:
            return ["check raised:\n" + traceback.format_exc()]
        if self.first.setdefault(i, fp) != fp:
            problems.append("outputs differ from the first run of this command")
        return problems


def repeat(runner, seconds, minimum):
    """Iterate for about `seconds`, at least `minimum` times; return the
    (wall, CPU, rescaled CPU) samples."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(runner.iteration(rescale=True))
        elapsed = time.perf_counter() - start
        if (len(samples) >= minimum
                and elapsed + statistics.fmean(s[0] for s in samples) > seconds):
            return samples


def end_to_end(args, plan, runner):
    """End-to-end metrics as {name: (value, samples)}, and the raw samples."""
    setup = setup_samples(args, SETUP_SAMPLES[args.size])
    samples = repeat(runner, args.seconds, 2)
    walls, cpus, scaled = (list(x) for x in zip(*samples))
    n = len(samples)
    raw = {"wall_s": walls, "cpu_s": cpus, "rescaled_cpu_s": scaled,
           "setup_wall_cpu_rescaled_s": setup}
    return raw, {
        "cpu_s": (statistics.median(scaled), n),
        "work_per_s": (statistics.median(plan.work_units / c for c in scaled), n),
        "setup_s": (statistics.median(s[2] for s in setup), len(setup)),
        "peak_rss_mb": (runner.peak_rss_mb, 1),
        "raw_wall_s": (statistics.median(walls), n),
        "raw_cpu_s": (statistics.median(cpus), n),
        "raw_setup_wall_s": (statistics.median(s[0] for s in setup), len(setup)),
        "raw_setup_cpu_s": (statistics.median(s[1] for s in setup), len(setup)),
        "host_slowdown": (statistics.median(c / s for c, s in zip(cpus, scaled)), n),
    }


def traced_iteration(runner, tracer):
    """One iteration with the tracer installed; the wrappers are gone after it."""
    tracer.reset()
    tracer.install()
    try:
        return runner.iteration(tracer)[0]
    finally:
        tracer.uninstall()


def per_layer(args, runner):
    """Per-layer metrics as {name: (value, samples)}, and the raw samples.

    Untraced and traced iterations alternate, so the overhead ratio pairs
    iterations that ran under the same machine load.
    """
    from tracer import Tracer
    tracer = Tracer()
    untraced, traced, counts, timings, costs = [], [], [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + untraced[-1] + traced[-1] <= args.seconds):
        untraced.append(runner.iteration()[0])
        traced.append(traced_iteration(runner, tracer))
        counts.append(tracer.counts())
        timings.append(tracer.timings())
        costs.append((tracer.span_cost, tracer.agg_cost))
        tracer.write_spans(WORK / args.workload / "spans.jsonl", len(traced) - 1)
        if counts[-1] != counts[0]:
            runner.failed += 1
            runner.problems.append(("traced iteration", [
                f"traced iteration {len(traced) - 1} counts differ from the first"]))
    peak = 0
    if counts[0]["mdp.states"]:
        # allocation tracing slows Python about 4x, so it gets its own pass
        tracer.track_alloc = True
        traced_iteration(runner, tracer)
        peak = tracer.peak_alloc

    c = counts[0]
    n = len(traced)
    out = {k: (v, 1) for k, v in c.items() if k in PER_LAYER_UNITS}
    for key in timings[0]:
        out[key] = (statistics.median(t[key] for t in timings), n)
    out["experts.leaderkit_build.useful_ratio"] = (
        _ratio(c["experts.leaderkit_build.distinct"], c["experts.leaderkit_build.calls"]), 1)
    out["mdp.reachable_ratio"] = (_ratio(c["mdp.reachable"], c["mdp.states"]), 1)
    out["mdp.peak_alloc_mb"] = (peak / 2 ** 20, 1 if peak else 0)
    out["trace.overhead_ratio"] = (
        statistics.median(t / u for u, t in zip(untraced, traced)), n)
    return {"untraced_wall_s": untraced, "traced_wall_s": traced,
            "wrapper_cost_s": costs}, out


def _ratio(num, den):
    return num / den if den else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny only exercises the harness (selftest.py)")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    import_laff()
    import numpy
    import scipy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    env = {"workload": args.workload, "seed": args.seed, "size": args.size,
           "trace": args.trace, "seconds": args.seconds, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "git_revision": git_revision(),
           "loadavg_1m_start": loadavg_1m()}
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.build_inputs(args.workload, args.seed, args.size, work)
    reference = None
    if args.seed == workloads.REFERENCE_SEED:
        ref = json.loads(REFERENCE.read_text())
        reference = {"tolerance": ref["tolerance"],
                     "commands": ref["workloads"][args.workload][args.size]}
    runner = Runner(plan, reference)

    if args.trace:
        raw, metrics = per_layer(args, runner)
        units = PER_LAYER_UNITS
    else:
        raw, metrics = end_to_end(args, plan, runner)
        units = END_TO_END_UNITS
    env["loadavg_1m_end"] = loadavg_1m()

    for cmd, problems in runner.problems:
        print(f"FAILED {cmd}", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"reference={'yes' if reference else 'no'}")
    for name, unit in {**units, **(RAW_UNITS if not args.trace else {})}.items():
        value, n = metrics[name]
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={n}")
    print(f"  {'failed_ratio':40s} {runner.failed}/{runner.attempted} commands")
    print("environment " + json.dumps(env))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                          for name in units}}
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "samples": {k: v[1] for k, v in metrics.items()},
                    "environment": env, "raw": raw}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
