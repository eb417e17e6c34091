"""The benchmark ledger: four fixed workloads, end-to-end and per layer.

    PYTHONPATH=src python benchmarks/ledger/run.py [--workload W] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]

Each workload runs in fresh interpreters (``workloads.py``): one prepares
the seeded inputs and their known answers, five time the set-up from spawn
to first verdict, one runs the timed window untraced.  ``--trace`` makes a
traced run instead: one subprocess whose window is half untraced (the
reference for the overhead) and half with the layer hooks on, reporting the
per-layer split.  Every metric is printed as ``workload metric value
unit``; the last line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics of ``BENCHMARK.json``, or
its per-layer metrics with ``--trace``.  The exit code is 1 when any op or
check failed, 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("scan_a", "scan_b", "edit_c", "jobs_a")
#: set-up is timed this many times per run; the median is reported
SETUP_SPAWNS = 5
#: measured and printed beside the declared metrics, but not gated: their
#: spread from run to run on a shared host exceeds any useful bound (see
#: README), or they can read 0; compare.py labels them without a bound
UNGATED = {
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "latency_p99_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "failed_ratio": ("ratio", "lower"),
    "samples": ("count", "higher"),
}
#: slack a child gets beyond its timed window before it is killed
CHILD_SLACK_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def workload_cmd(mode: str, workload: str, work: Path, *extra: str) -> list:
    return [sys.executable, str(HERE / "workloads.py"), mode,
            "--workload", workload, "--dir", str(work), *extra]


class Run:
    """One workload's outcome across its subprocesses."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.layers = {}
        self.setup_samples = []
        self.missing = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def absorb(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures.extend(result["failures"])


def child_line(cmd: list, tag: str, timeout: float) -> str:
    """Run a ``workloads.py`` child; the rest of its last ``tag`` line."""
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = [line for line in done.stdout.splitlines() if line.startswith(tag + " ")]
    if done.returncode or not lines:
        raise RuntimeError(f"workloads.py {cmd[2]} exited {done.returncode} "
                           f"without a {tag} line")
    return lines[-1][len(tag) + 1:]


def run_child(cmd: list, timeout: float) -> dict:
    return json.loads(child_line(cmd, "RESULT", timeout))


def time_first(cmd: list) -> tuple:
    """Seconds from spawning a fresh interpreter to its first verdict."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    verdict, at = child_line(cmd, "VERDICT", CHILD_SLACK_S).split()
    return float(at) - started, verdict == "ok"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, wrong: bool = False) -> Run:
    run = Run(workload)
    work = ROOT / ".ledger-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    flags = ["--tiny"] * tiny + ["--wrong-answer"] * wrong
    try:
        subprocess.run(workload_cmd("prepare", workload, work, "--seed", str(seed), *flags),
                       cwd=ROOT, env=child_env(), check=True, timeout=CHILD_SLACK_S)
        timeout = seconds + CHILD_SLACK_S
        if trace:
            out = ROOT / ".ledger-out"
            out.mkdir(exist_ok=True)
            traced = run_child(workload_cmd(
                "run", workload, work, "--seconds", str(seconds),
                "--trace", str(out / f"trace_{workload}.json")), timeout)
            run.absorb(traced)
            run.metrics = {"samples": traced["samples"]}
            run.layers = traced["layers"]
            run.missing = traced["missing"] + sorted(traced["unresolved"])
        else:
            first = workload_cmd("first", workload, work)
            # the median also absorbs the one spawn in a fresh checkout that
            # byte-compiles the imports
            for __ in range(SETUP_SPAWNS):
                elapsed, ok = time_first(first)
                run.setup_samples.append(elapsed)
                run.check(ok, "set-up spawn: first verdict wrong")
            untraced = run_child(workload_cmd("run", workload, work,
                                              "--seconds", str(seconds)), timeout)
            run.absorb(untraced)
            run.metrics = {
                "setup_s": statistics.median(run.setup_samples),
                "latency_p50_s": untraced.get("latency_p50_s", 0.0),
                "latency_p90_s": untraced.get("latency_p90_s", 0.0),
                "ops_per_s": untraced["ops_per_s"],
                "peak_rss_mb": untraced["peak_rss_mb"],
                "samples": untraced["samples"],
            }
            if workload == "jobs_a":
                run.metrics["latency_p99_s"] = untraced.get("latency_p99_s", 0.0)
    except (subprocess.SubprocessError, RuntimeError, KeyError, ValueError) as error:
        run.check(False, f"{workload}: {error}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    run.metrics["failed_ratio"] = run.failed / max(1, run.attempted)
    return run


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="make the traced per-layer run")
    parser.add_argument("--out", default=None, help="write the full result as JSON")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--wrong-answer", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    units = {**{name: unit for name, (unit, __) in UNGATED.items()},
             **end_to_end, **per_layer}

    runs = [run_workload(name, args.seed, seconds, bool(args.trace),
                         args.tiny, args.wrong_answer)
            for name in ([args.workload] if args.workload else WORKLOADS)]

    final = {}
    for run in runs:
        for name, value in list(run.metrics.items()) + list(run.layers.items()):
            print(f"{run.workload} {name} {value:.6g} {units.get(name, '')}")
        for layer in run.missing:
            print(f"warning: {run.workload}: hook {layer} never fired", file=sys.stderr)
        for failure in run.failures[:5]:
            print(f"FAILED {run.workload}: {failure}", file=sys.stderr)
        values = run.layers if args.trace else run.metrics
        prefix = "" if args.workload else f"{run.workload}/"
        for name, unit in (per_layer if args.trace else end_to_end).items():
            if name in values:
                final[prefix + name] = {"value": values[name], "unit": unit}

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if args.out:
        document = {
            "host": host_facts(),
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "workloads": {
                run.workload: {
                    "metrics": {name: {"value": value, "unit": units.get(name, "")}
                                for name, value in {**run.metrics, **run.layers}.items()},
                    "setup_samples_s": run.setup_samples,
                    "attempted": run.attempted,
                    "failed": run.failed,
                    "failures": run.failures,
                    "missing_hooks": run.missing,
                }
                for run in runs
            },
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
