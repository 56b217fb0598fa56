"""Fast self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Runs every workload once at its tiny size at the reference seed, untraced
and traced, and checks the result line against BENCHMARK.json: every
metric named there is present with its unit, nothing fails, and the
end-to-end metrics are positive.  It also checks that the tracer puts back
every function it wrapped, that the host speed sampler puts back the
signal handler it replaced, and that the benchmark refuses to run (non-zero
exit, no result line) in a directory without the laff sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORK, import_laff


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_results(spec, workloads):
    for name in workloads.WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, "--workload", name, "--seed",
                             str(workloads.REFERENCE_SEED), "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny")
            where = f"{name} --trace {trace}"
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, f"{where}\n{proc.stderr}"
            assert result["attempted"] >= 1, where
            got = result["metrics"]
            assert set(got) == {m["name"] for m in metrics}, f"{where}: {sorted(got)}"
            for m in metrics:
                value = got[m["name"]]
                assert value["unit"] == m["unit"], f"{where}: unit of {m['name']}"
                assert isinstance(value["value"], (int, float)), f"{where}: {m['name']}"
                if trace == 0:
                    assert value["value"] > 0, f"{where}: {m['name']} is not positive"
            print(f"ok  {where}")


def check_uninstall():
    import tracer
    owners = [(m, a) for m, a, _ in tracer.COARSE]
    owners += [(tracer.LeaderKit, "build"), (tracer.InducedMdp, "reachable_from_initial")]
    owners += [(cls, meth) for cls in tracer.AGENTS for meth in tracer.AGENT_METHODS]
    before = [(o, a, o.__dict__.get(a)) for o, a in owners]
    t = tracer.Tracer()
    t.install()
    assert any(o.__dict__.get(a) is not v for o, a, v in before)
    t.uninstall()
    changed = [a for o, a, v in before if o.__dict__.get(a) is not v]
    assert not changed, f"tracer left wrappers on {changed}"
    print("ok  tracer removes its wrappers")


def check_hostspeed():
    import signal
    import time
    from hostspeed import HostSpeed
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            sum(range(1000))
        seconds = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 2 and 0 < speed.spent < seconds, speed.samples
    assert speed.slowdown() > 0 and 0 < speed.rescale(seconds)
    print("ok  host speed sampler")


def check_refuses_without_sources():
    bare = ROOT / WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", "regret_long", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without src/laff")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_laff()
    import workloads
    check_uninstall()
    check_hostspeed()
    check_refuses_without_sources()
    check_results(spec, workloads)
    print("selftest ok")


if __name__ == "__main__":
    main()
