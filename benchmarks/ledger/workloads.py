"""The ledger's four workloads, each run in a fresh interpreter.

    workloads.py prepare --workload W --seed N --dir D [--tiny] [--wrong-answer]
    workloads.py first   --workload W --dir D
    workloads.py run     --workload W --dir D --seconds S [--trace FILE]

``prepare`` generates the workload's inputs from the seed and writes them
into D, with the answers the benchmark expects (``manifest.json``).  The
answers come from the generator and the injected faults, or from the
imperative oracles in ``repro.synthetic``, never from the verdict path being
timed.  ``--wrong-answer`` writes deliberately wrong answers, so every check
must fail (the harness's own self-test).

``first`` is the set-up probe: from a fresh interpreter it builds everything
from D, reaches the first verdict, prints ``VERDICT ok|fail`` and exits;
``run.py`` times it from the spawn.  ``run`` does the workload's set-up
checks, warms up, runs the timed window (one closed loop; ``jobs_a`` uses two
client threads) and prints one ``RESULT {json}`` line.  With ``--trace FILE``
the S seconds are split: an untraced first half is the reference for the
tracing overhead, then the layer hooks go on for the second half and the
spans are written to FILE.

Everything runs with the default serial evaluation of the ``validate`` CLI.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager

#: an untraced window runs on past its seconds until it holds this many
#: timed ops: p90 needs samples beyond it, also when the host is slow
MIN_OPS = 100

#: keys of the Type C catalog the expert specs cover (their wildcard stems)
TYPE_C_COVERED = ("TimeoutSeconds", "Limit", "EndpointIP", "Subnet",
                  "ServiceUrl", "AccountId", "Enabled", "Port", "Ratio")
#: the token an edit writes over a covered value; no covered type accepts it
BROKEN_TOKEN = "@@broken@@"

SCALES = {
    #        full   tiny
    "scan_a": (0.2, 0.02),
    "scan_b": (0.01, 0.001),
    "edit_c": (4.0, 0.5),
    "jobs_a": (0.07, 0.02),
}


class Tally:
    """Attempts and failures: timed ops and every correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(what)
        return ok


class Window:
    """The timed window; checks run ``outside()`` it and do not count."""

    def __init__(self, seconds: float, min_ops: int):
        self.seconds = seconds
        self.min_ops = min_ops
        self.start = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def open(self, done: int) -> bool:
        """Whether to start another op, ``done`` having completed."""
        return self.elapsed() < self.seconds or done < self.min_ops

    @contextmanager
    def outside(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - started


def read(directory: str, name: str) -> str:
    with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
        return handle.read()


def write(directory: str, name: str, text: str) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        handle.write(text)


class Workload:
    #: the layers every timed op crosses; a traced run that records none of
    #: one reports it missing
    layers = ()

    def first_ok(self) -> bool:
        """Build everything from the inputs and check the first verdict."""
        raise NotImplementedError

    def start(self, tally: Tally) -> None:
        """Set-up checks and warm-up, before the first timed window."""
        raise NotImplementedError

    def window(self, seconds: float, min_ops: int, tally: Tally, tracer) -> dict:
        """One timed window: latencies, op ids and the window's length."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``first_ok`` or ``start`` left running."""


# ---------------------------------------------------------------------------
# scan_a / scan_b: one CLI-style validate per op
# ---------------------------------------------------------------------------


class Scan(Workload):
    """Fresh session, ``load_text``, ``validate``, ``fingerprint()``."""

    layers = ("drivers.parse", "repository.add_all", "repository.query",
              "cpl.parse", "core.compiler.optimize", "core.evaluator.run",
              "core.report.fingerprint", "core.report.to_dict")
    format_name = ""
    data_name = ""

    def __init__(self, directory: str, manifest: dict):
        self.directory = directory
        self.manifest = manifest
        self.text = read(directory, self.data_name)
        self.spec = read(directory, "spec.cpl")

    def op(self):
        from repro import ValidationSession

        session = ValidationSession()
        session.load_text(self.format_name, self.text, source=self.data_name)
        report = session.validate(self.spec)
        return report, report.fingerprint()

    def first_ok(self) -> bool:
        report, __ = self.op()
        return self.verdict_ok(report)

    def start(self, tally: Tally) -> None:
        self.setup_checks(tally)
        for __ in range(2):  # warm-up: lazy imports, regex caches
            report, __ = self.op()
            tally.check(self.verdict_ok(report), "warm-up verdict")

    def window(self, seconds: float, min_ops: int, tally: Tally, tracer) -> dict:
        latencies, ops = [], []
        window = Window(seconds, min_ops)
        while window.open(len(ops)):
            op_id = f"op{len(ops)}"
            if tracer is not None:
                tracer.set_op(op_id)
            started = time.perf_counter()
            report, fingerprint = self.op()
            latencies.append(time.perf_counter() - started)
            ops.append(op_id)
            tally.check(self.verdict_ok(report, fingerprint),
                        f"{op_id}: verdict differs from the known answer")
        return {"latencies": latencies, "ops": ops, "window_s": window.elapsed()}


class ScanA(Scan):
    format_name = "xml"
    data_name = "type_a.xml"

    @staticmethod
    def prepare(directory, seed, scale, wrong):
        from repro import InferenceEngine, ValidationSession
        from repro.synthetic import EXPERT_SPECS, validate_type_a
        from repro.synthetic.azure import generate_type_a

        text = generate_type_a(scale, seed=seed).sources[0][1]
        session = ValidationSession()
        session.load_text("xml", text, source=ScanA.data_name)
        inferred = InferenceEngine().infer(session.store).to_cpl()
        write(directory, ScanA.data_name, text)
        write(directory, "spec.cpl", EXPERT_SPECS["type_a"] + "\n" + inferred)
        # the expert specs encode the imperative validator's checks, and
        # inferred specs hold on the snapshot they were inferred from
        errors = len(validate_type_a(session.store))
        return {"expect_pass": errors == 0 and not wrong,
                "oracle_errors": errors + wrong}

    def verdict_ok(self, report, fingerprint=None) -> bool:
        if report.passed != self.manifest["expect_pass"]:
            return False
        return fingerprint is None or fingerprint == self.fingerprint

    def setup_checks(self, tally: Tally) -> None:
        from repro import ValidationSession
        from repro.synthetic import validate_type_a

        session = ValidationSession()
        session.load_text("xml", self.text, source=self.data_name)
        tally.check(
            len(validate_type_a(session.store)) == self.manifest["oracle_errors"],
            "validate_type_a error count differs from the known answer",
        )
        prints, verdicts = set(), set()
        for executor in (None, "serial", "thread", "process"):
            session = ValidationSession(executor=executor, max_workers=2)
            session.load_text("xml", self.text, source=self.data_name)
            report = session.validate(self.spec)
            prints.add(report.fingerprint())
            verdicts.add(report.passed == self.manifest["expect_pass"])
        self.fingerprint = report.fingerprint()
        tally.check(len(prints) == 1 and verdicts == {True},
                    "executors disagree or the verdict is wrong")


class ScanB(Scan):
    format_name = "keyvalue"
    data_name = "type_b.kv"

    @staticmethod
    def prepare(directory, seed, scale, wrong):
        from repro.synthetic import EXPERT_SPECS
        from repro.synthetic.azure import generate_type_b

        lines = generate_type_b(scale, seed=seed).sources[0][1].split("\n")
        rng = random.Random(f"scan_b-faults-{seed}")
        injected = []
        for param, bad in (("NodeState", "rebooting"), ("HeartbeatSeconds", "75")):
            candidates = [i for i, line in enumerate(lines)
                          if line.split(" = ")[0].endswith(f".{param}")]
            for index in rng.sample(candidates, 10):
                key = lines[index].split(" = ")[0]
                lines[index] = f"{key} = {bad}"
                injected.append(key)
        write(directory, ScanB.data_name, "\n".join(lines))
        write(directory, "spec.cpl", EXPERT_SPECS["type_b"])
        if wrong:
            injected.append("Cluster::BC00.Node::N99999.NodeState")
        return {"expect_keys": sorted(injected),
                "oracle_errors": len(injected)}

    def verdict_ok(self, report, fingerprint=None) -> bool:
        keys = sorted(violation.key for violation in report.violations)
        return keys == self.manifest["expect_keys"]

    def setup_checks(self, tally: Tally) -> None:
        from repro import ValidationSession
        from repro.synthetic import validate_type_b

        session = ValidationSession()
        session.load_text("keyvalue", self.text, source=self.data_name)
        tally.check(
            len(validate_type_b(session.store)) == self.manifest["oracle_errors"],
            "validate_type_b error count differs from the injected faults",
        )


# ---------------------------------------------------------------------------
# edit_c: single-key edits under `service --delta`
# ---------------------------------------------------------------------------


class EditC(Workload):
    """96 INI files watched by ``ValidationService(delta=True)``."""

    layers = ("service.scan", "runtime.probe", "runtime.read_bytes",
              "drivers.parse", "repository.add_all", "repository.diff",
              "core.incremental.affected", "parallel.engine.evaluate_shard",
              "repository.query", "observability.analytics")

    def __init__(self, directory: str, manifest: dict):
        from repro.service import SourceSpec

        self.directory = directory
        self.manifest = manifest
        self.spec_path = os.path.join(directory, "spec.cpl")
        self.spec = read(directory, "spec.cpl")
        self.sources = [SourceSpec("ini", os.path.join(directory, name), scope)
                        for name, scope in manifest["files"]]
        self.texts = [read(directory, name) for name, __ in manifest["files"]]

    @staticmethod
    def prepare(directory, seed, scale, wrong):
        from repro.synthetic import EXPERT_SPECS
        from repro.synthetic.azure import generate_type_c

        files, edits = [], []
        for index, (__, text, scope) in enumerate(
            generate_type_c(scale, seed=seed).sources
        ):
            name = f"env{index:02d}.ini"
            write(directory, name, text)
            files.append((name, scope))
            section = ""
            for line_no, line in enumerate(text.split("\n")):
                if line.startswith("["):
                    section = line.strip("[]")
                elif " = " in line:
                    key = line.split(" = ")[0]
                    if any(stem in key for stem in TYPE_C_COVERED):
                        rendered = f"{scope}.{section}.{key}" + ("!" if wrong else "")
                        edits.append((index, line_no, rendered))
        write(directory, "spec.cpl", EXPERT_SPECS["type_c"])
        return {"files": files, "edits": edits,
                "restored_keys": ["<clean>"] if wrong else []}

    def service(self):
        from repro.service import ValidationService

        return ValidationService(self.spec_path, self.sources, delta=True)

    def keys(self, report) -> list:
        return sorted(violation.key for violation in report.violations)

    def first_ok(self) -> bool:
        self.broken = None
        result = self.service().scan(force=True)
        return self.keys(result.report) == self.manifest["restored_keys"]

    def full_scan(self):
        """The fingerprint a fresh full scan of the current files gives."""
        from repro import ValidationSession

        session = ValidationSession()
        for source in self.sources:
            session.load_source(source.format_name, source.path, source.scope)
        return session.validate(self.spec)

    def edit(self, rng, broken):
        """Write the next edit; returns the violation keys it should cause."""
        if broken is None:
            index, line_no, rendered = rng.choice(self.manifest["edits"])
            lines = self.texts[index].split("\n")
            key = lines[line_no].split(" = ")[0]
            lines[line_no] = f"{key} = {BROKEN_TOKEN}"
            write(self.directory, self.manifest["files"][index][0], "\n".join(lines))
            return index, [rendered]
        write(self.directory, self.manifest["files"][broken][0], self.texts[broken])
        return None, self.manifest["restored_keys"]

    def start(self, tally: Tally) -> None:
        self.watcher = self.service()
        result = self.watcher.scan(force=True)
        tally.check(self.keys(result.report) == self.manifest["restored_keys"],
                    "bootstrap scan verdict differs from the known answer")
        self.rng = random.Random(f"edit_c-{self.manifest['seed']}")
        self.broken = None
        for __ in range(4):  # warm-up: two break/restore cycles
            self.broken, expected = self.edit(self.rng, self.broken)
            result = self.watcher.scan()
            tally.check(result is not None
                        and self.keys(result.report) == expected,
                        "warm-up verdict")

    def window(self, seconds: float, min_ops: int, tally: Tally, tracer) -> dict:
        stats = self.watcher.spec_cache.stats
        lookups = (stats.hits, stats.lookups)
        latencies, ops = [], []
        selected = total = 0
        window = Window(seconds, min_ops)
        while window.open(len(ops)):
            op_id = f"op{len(ops)}"
            self.broken, expected = self.edit(self.rng, self.broken)
            if tracer is not None:
                tracer.set_op(op_id)
            started = time.perf_counter()
            result = self.watcher.scan()
            latencies.append(time.perf_counter() - started)
            ops.append(op_id)
            if tracer is not None:
                tracer.set_op(None)
            if not tally.check(
                result is not None and self.keys(result.report) == expected,
                f"{op_id}: verdict differs from the known answer",
            ):
                continue
            if result.delta:
                selected += result.delta["selected"]
                total += result.delta["statements_total"]
            if len(ops) % 10 == 0:
                with window.outside():
                    self.check_full(result, expected, tally, op_id)
        elapsed = window.elapsed()
        if ops and len(ops) % 10 and result is not None:
            self.check_full(result, expected, tally, "last op")
        return {
            "latencies": latencies,
            "ops": ops,
            "window_s": elapsed,
            "selected_ratio": selected / total if total else 0.0,
            "cache_hit_ratio": _hit_ratio(stats, lookups),
        }

    def close(self) -> None:
        if self.broken is not None:  # leave the inputs as prepared
            self.edit(self.rng, self.broken)

    def check_full(self, result, expected, tally, label):
        full = self.full_scan()
        tally.check(
            full.fingerprint() == result.report.fingerprint()
            and self.keys(full) == expected,
            f"{label}: delta scan differs from a fresh full scan",
        )


def _hit_ratio(stats, before) -> float:
    hits, lookups = stats.hits - before[0], stats.lookups - before[1]
    return hits / lookups if lookups else 0.0


# ---------------------------------------------------------------------------
# jobs_a: submit -> wait round trips on the in-process job service
# ---------------------------------------------------------------------------


class JobsA(Workload):
    """``JobService(workers=2)`` with a journal, two closed-loop clients."""

    layers = ("jobs.submit", "jobs.journal_append", "jobs.executor",
              "runtime.read_bytes", "drivers.parse", "repository.add_all",
              "repository.query", "core.evaluator.run",
              "core.report.fingerprint", "core.report.to_dict")
    CLIENTS = 2

    def __init__(self, directory: str, manifest: dict):
        self.directory = directory
        self.manifest = manifest
        self.spec = read(directory, "spec.cpl")
        self.payload = [{"format": "xml", "path": os.path.join(directory, "payload.xml")}]

    @staticmethod
    def prepare(directory, seed, scale, wrong):
        from repro import ValidationSession
        from repro.synthetic import EXPERT_SPECS
        from repro.synthetic.azure import generate_type_a

        write(directory, "payload.xml", generate_type_a(scale, seed=seed).sources[0][1])
        write(directory, "spec.cpl", EXPERT_SPECS["type_a"])
        session = ValidationSession()
        session.load_source("xml", os.path.join(directory, "payload.xml"))
        fingerprint = session.validate(EXPERT_SPECS["type_a"]).fingerprint()
        expect = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        return {"expect_digest": "0" * 64 if wrong else expect}

    def start_service(self, journal: str) -> None:
        from repro.jobs import JobService

        self.journal = os.path.join(self.directory, journal)
        self.service = JobService(workers=2, journal_path=self.journal)

    def round_trip(self):
        job, __ = self.service.submit(spec=self.spec, sources=self.payload)
        return self.service.wait(job.id, timeout=60)

    def job_ok(self, job) -> bool:
        from repro.jobs import JobState

        return (job.state == JobState.DONE
                and job.result["fingerprint"] == self.manifest["expect_digest"])

    def first_ok(self) -> bool:
        self.start_service(f"first-{os.getpid()}.jsonl")
        return self.job_ok(self.round_trip())

    def start(self, tally: Tally) -> None:
        self.start_service("journal.jsonl")
        for __ in range(10):  # warm-up: pool threads, spec cache, journal file
            tally.check(self.job_ok(self.round_trip()), "warm-up job")

    def close(self) -> None:
        self.service.close()
        os.remove(self.journal)

    def window(self, seconds: float, min_ops: int, tally: Tally, tracer) -> dict:
        from repro.jobs import AdmissionError

        service = self.service
        stats = service.spec_cache.stats
        lookups = (stats.hits, stats.lookups)
        records = []      # (round trip, submit, queue wait, run, job id)
        rejected = []
        window = Window(seconds, min_ops)

        def client():
            while window.open(len(records)):
                started = time.perf_counter()
                try:
                    job, __ = service.submit(spec=self.spec, sources=self.payload)
                except AdmissionError as error:
                    rejected.append(error.reason)
                    tally.check(False, f"submit refused: {error.reason}")
                    continue
                submitted = time.perf_counter()
                try:
                    job = service.wait(job.id, timeout=60)
                except TimeoutError as error:
                    tally.check(False, str(error))
                    continue
                finished = time.perf_counter()
                tally.check(self.job_ok(job),
                            f"{job.id}: {job.state} or fingerprint differs")
                records.append((finished - started, submitted - started,
                                job.wait_seconds or 0.0, job.run_seconds or 0.0,
                                job.id))

        clients = [threading.Thread(target=client, name=f"ledger-client-{i}")
                   for i in range(self.CLIENTS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        elapsed = window.elapsed()
        count = max(1, len(records))
        return {
            "latencies": [record[0] for record in records],
            "ops": [record[4] for record in records],
            "window_s": elapsed,
            "cache_hit_ratio": _hit_ratio(stats, lookups),
            "jobs": {
                "queue_wait_s": sum(r[2] for r in records) / count,
                "run_s": sum(r[3] for r in records) / count,
                "handoff_s": sum(r[0] - r[1] - r[2] - r[3] for r in records) / count,
                "rejected": len(rejected),
            },
        }


WORKLOADS = {"scan_a": ScanA, "scan_b": ScanB, "edit_c": EditC, "jobs_a": JobsA}


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def latency_summary(latencies: list) -> dict:
    ordered = sorted(latencies)
    summary = {"samples": len(ordered)}
    if len(ordered) >= 2:
        summary["latency_p50_s"] = statistics.median(ordered)
        summary["latency_p90_s"] = statistics.quantiles(
            ordered, n=10, method="inclusive")[8]
        summary["latency_p99_s"] = statistics.quantiles(
            ordered, n=100, method="inclusive")[98]
    return summary


def layer_metrics(totals: dict, outcome: dict) -> dict:
    """The per-layer metrics of one traced window, per timed op."""
    from layertrace import LAYERS

    count = max(1, len(outcome["ops"]))
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = totals.get(layer, {}).get("self_s", 0.0) / count
    parse = totals.get("drivers.parse", {})
    metrics["drivers.instances"] = parse.get("instances", 0) / count
    metrics["drivers.mb_per_s"] = (
        parse.get("bytes", 0) / parse["self_s"] / 1e6 if parse.get("self_s") else 0.0
    )
    metrics["repository.queries"] = totals.get("repository.query", {}).get("calls", 0) / count
    run = totals.get("core.evaluator.run", {})
    metrics["core.evaluator.statements"] = run.get("statements", 0) / count
    metrics["core.evaluator.violations"] = run.get("violations", 0) / count
    metrics["jobs.journal_appends"] = (
        totals.get("jobs.journal_append", {}).get("calls", 0) / count)
    metrics["core.incremental.selected_ratio"] = outcome.get("selected_ratio", 0.0)
    metrics["parallel.cache.hit_ratio"] = outcome.get("cache_hit_ratio", 0.0)
    jobs = outcome.get("jobs", {})
    for name in ("queue_wait_s", "run_s", "handoff_s", "rejected"):
        metrics[f"jobs.{name}"] = jobs.get(name, 0)
    attributed = sum(row["self_s"] for row in totals.values())
    wall = sum(outcome["latencies"])
    metrics["trace.coverage"] = attributed / wall if wall else 0.0
    metrics["trace.unattributed_s"] = (wall - attributed) / count
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("prepare", "first", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed window (run)")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--wrong-answer", action="store_true")
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    if args.mode == "run" and args.seconds is None:
        parser.error("run needs --seconds")
    workload = WORKLOADS[args.workload]

    if args.mode == "prepare":
        os.makedirs(args.dir, exist_ok=True)
        scale = SCALES[args.workload][1 if args.tiny else 0]
        manifest = workload.prepare(args.dir, args.seed, scale, int(args.wrong_answer))
        manifest.update(workload=args.workload, seed=args.seed, scale=scale)
        write(args.dir, "manifest.json", json.dumps(manifest))
        return 0

    manifest = json.loads(read(args.dir, "manifest.json"))
    if args.mode == "first":
        instance = workload(args.dir, manifest)
        ok = instance.first_ok()
        # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time
        at = time.clock_gettime(time.CLOCK_MONOTONIC)
        print(f"VERDICT {'ok' if ok else 'fail'} {at!r}", flush=True)
        instance.close()
        return 0

    tally = Tally()
    instance = workload(args.dir, manifest)
    instance.start(tally)
    if args.trace:
        from layertrace import LayerTracer

        # both halves in one warm process, one after the other, so the
        # overhead compares like with like
        reference = instance.window(args.seconds / 2, 2, tally, None)
        tracer = LayerTracer().install()
        outcome = instance.window(args.seconds / 2, 2, tally, tracer)
    else:
        tracer = None
        outcome = instance.window(args.seconds, MIN_OPS, tally, None)
    instance.close()
    summary = latency_summary(outcome["latencies"])
    result = dict(summary)
    result.update(
        ops_per_s=summary["samples"] / outcome["window_s"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
    )
    if tracer is not None:
        totals = tracer.summarize(set(outcome["ops"]))
        result["layers"] = layer_metrics(totals, outcome)
        result["layers"]["trace.overhead"] = (
            summary["latency_p50_s"] / statistics.median(reference["latencies"]) - 1)
        result["missing"] = sorted(set(workload.layers) - set(totals))
        result["unresolved"] = tracer.unresolved
        result["trace_events"] = tracer.write_chrome_trace(args.trace)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
