"""The sharded validation engine: evaluate shards, merge deterministically.

The contract that makes parallel validation trustworthy:

    **whatever the executor, the merged report is identical to the report
    serial evaluation would have produced** (timing counters aside).

It holds because shard evaluation is *per unit*: every top-level statement
gets its own :class:`~repro.core.report.ValidationReport`, and the merge
replays those unit reports in original statement order.  Serial evaluation
is exactly that — statements in order, each appending its violations — so
the merged violation/note sequences are byte-identical regardless of which
shard (or process) evaluated which unit.  A determinism test in
``tests/test_parallel.py`` asserts this on the synthetic Azure corpus, and
``ValidationReport.fingerprint()`` is the canonical comparison form.

Macro (``let``) handling: top-level lets are broadcast to every shard and
replayed in original order before any unit with a higher original index,
reproducing serial visibility.  Programs with *nested* lets (or policies
with cross-statement behavior) are rejected by
:func:`repro.parallel.shards.serial_only_reason`, and
:class:`ParallelValidator` falls back to plain serial evaluation for them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..core.evaluator import Context, Evaluator
from ..core.policy import ValidationPolicy
from ..core.report import ValidationReport
from ..cpl import ast
from ..observability import get_metrics, get_tracer
from ..observability.analytics import merge_spec_profiles
from ..observability.tracing import NULL_TRACER, SpanContext, Tracer
from ..repository.store import ConfigStore
from ..runtime import RuntimeProvider, StaticRuntime
from ..runtime import clock as _clock
from .executors import ExecutorLike, resolve_executor
from .shards import Shard, Unit, partition_statements, serial_only_reason

__all__ = ["ParallelValidator", "WorkerState", "ShardResult", "evaluate_shard"]

#: default shard-count cap: a few shards per core keeps the packing flexible
#: without drowning in per-shard overhead
_SHARDS_PER_CORE = 4


@dataclass
class WorkerState:
    """Everything a shard evaluator needs, picklable/fork-inheritable."""

    store: ConfigStore
    runtime: RuntimeProvider
    policy: ValidationPolicy
    macros: dict = field(default_factory=dict)
    lets: tuple[Unit, ...] = ()
    profile: bool = False
    #: per-statement attribution (repro.observability.analytics); the unit
    #: reports carry the recorded spec_profile back across the executor
    #: boundary and the merge folds them in original statement order
    analytics: bool = False
    #: optional statement guard (repro.resilience.SpecGuard) — plain data,
    #: so it pickles/forks; breaker decisions travel in, captured spec
    #: errors travel back inside each unit report's health block
    guard: object = None
    #: optional tracing context (repro.observability.SpanContext, picklable):
    #: when set, the worker roots a local tracer under this span and ships
    #: its finished spans back inside the ShardResult for merge adoption
    trace: Optional[SpanContext] = None


@dataclass
class ShardResult:
    """Per-unit reports of one shard plus its wall time."""

    label: str
    unit_reports: list[tuple[int, ValidationReport]]
    seconds: float
    #: finished worker-side spans (empty unless tracing was enabled)
    spans: list = field(default_factory=list)


def evaluate_shard(state: WorkerState, shard: Shard) -> ShardResult:
    """Evaluate one shard's units in order, one report per unit."""
    started = _clock.now()
    # worker-side tracer: rooted at the engine's span, span ids namespaced
    # by parent-span + shard label so merged trees never collide
    if state.trace is not None:
        tracer = Tracer(
            origin=state.trace,
            prefix=f"{state.trace.span_id}/{shard.label}:",
        )
    else:
        tracer = NULL_TRACER
    evaluator = Evaluator(
        state.store,
        state.runtime,
        state.policy,
        profile=state.profile,
        macros=state.macros,
        guard=state.guard,
        analytics=state.analytics,
    )
    let_position = 0
    unit_reports: list[tuple[int, ValidationReport]] = []
    with tracer.span(f"shard[{shard.label}]", units=len(shard.units)):
        for unit in shard.units:
            while (
                let_position < len(state.lets)
                and state.lets[let_position].index < unit.index
            ):
                let = state.lets[let_position].statement
                evaluator.macros[let.name] = let.predicate
                let_position += 1
            unit_report = ValidationReport()
            with tracer.span(
                "evaluate(stmt)",
                index=unit.index,
                stmt=type(unit.statement).__name__,
                line=getattr(unit.statement, "line", 0) or 0,
            ):
                if state.guard is not None:
                    evaluator.execute_guarded(unit.statement, Context(), unit_report)
                else:
                    evaluator.execute_statement(unit.statement, Context(), unit_report)
            unit_reports.append((unit.index, unit_report))
    return ShardResult(
        shard.label,
        unit_reports,
        _clock.now() - started,
        spans=tracer.finished_spans(),
    )


def _absorb(report: ValidationReport, unit_report: ValidationReport) -> None:
    """Fold one unit report into the merged report (order-preserving)."""
    report.violations.extend(unit_report.violations)
    report.notes.extend(unit_report.notes)
    report.specs_evaluated += unit_report.specs_evaluated
    report.specs_failed += unit_report.specs_failed
    report.specs_skipped += unit_report.specs_skipped
    report.suppressed += unit_report.suppressed
    report.instances_checked += unit_report.instances_checked
    for key, seconds in unit_report.spec_timings.items():
        report.spec_timings[key] = report.spec_timings.get(key, 0.0) + seconds
    merge_spec_profiles(report.spec_profile, unit_report.spec_profile)
    report.health.merge(unit_report.health)


class ParallelValidator:
    """Shard a compiled program and evaluate the shards concurrently.

    ``executor`` is ``"auto"`` (workload-size heuristic), ``"serial"``,
    ``"thread"``, ``"process"``, or a ready-made executor object.  Output
    is deterministic: identical to serial evaluation for every executor.
    """

    def __init__(
        self,
        store: ConfigStore,
        runtime: Optional[RuntimeProvider] = None,
        policy: Optional[ValidationPolicy] = None,
        executor: Union[str, ExecutorLike] = "auto",
        max_workers: Optional[int] = None,
        max_shards: Optional[int] = None,
        profile: bool = False,
        analytics: bool = False,
        shard_timeout: Optional[float] = None,
        shard_retries: int = 1,
        guard=None,
    ):
        self.store = store
        self.runtime = runtime if runtime is not None else StaticRuntime()
        self.policy = policy if policy is not None else ValidationPolicy()
        self.executor = executor
        self.max_workers = max_workers
        self.max_shards = max_shards
        self.profile = profile
        #: per-statement attribution (repro.observability.analytics)
        self.analytics = analytics
        #: per-shard wall-clock wait budget in seconds; setting it turns on
        #: shard supervision (repro.parallel.supervision) with the fallback
        #: ladder retry-same-executor → serial re-run → mark shard failed
        self.shard_timeout = shard_timeout
        self.shard_retries = shard_retries
        #: optional statement guard (repro.resilience.SpecGuard)
        self.guard = guard

    # ------------------------------------------------------------------

    def _serial_fallback(
        self,
        statements: Sequence[ast.Statement],
        report: ValidationReport,
        macros: Optional[dict],
    ) -> ValidationReport:
        evaluator = Evaluator(
            self.store,
            self.runtime,
            self.policy,
            profile=self.profile,
            macros=macros,
            guard=self.guard,
            analytics=self.analytics,
        )
        evaluator.run(list(statements), report)
        report.executor = "serial-fallback"
        report.shards_run += 1
        return report

    def validate_statements(
        self,
        statements: Sequence[ast.Statement],
        report: Optional[ValidationReport] = None,
        macros: Optional[dict] = None,
    ) -> ValidationReport:
        """Validate a *compiled* statement list (no load/include commands;
        the session resolves those, and the compiler has already run)."""
        if report is None:
            report = ValidationReport()
        tracer = get_tracer()
        metrics = get_metrics()
        started = _clock.now()
        with tracer.span("evaluate", mode="parallel") as span:
            reason = serial_only_reason(statements, self.policy)
            if reason is not None:
                span.set(fallback="serial", reason=reason)
                result = self._serial_fallback(statements, report, macros)
                result.elapsed_seconds += _clock.now() - started
                return result
            max_shards = self.max_shards or _SHARDS_PER_CORE * (os.cpu_count() or 1)
            lets, shards = partition_statements(statements, max_shards)
            state = WorkerState(
                store=self.store,
                runtime=self.runtime,
                policy=self.policy,
                macros=dict(macros) if macros else {},
                lets=lets,
                profile=self.profile,
                analytics=self.analytics,
                guard=self.guard,
                trace=tracer.current_context() if tracer.enabled else None,
            )
            estimated_work = len(statements) * max(1, self.store.instance_count)
            executor = resolve_executor(
                self.executor, len(shards), estimated_work, self.max_workers
            )
            span.set(executor=executor.name, shards=len(shards))
            if self.shard_timeout is not None and shards:
                from .supervision import run_supervised

                results, shard_failures = run_supervised(
                    executor, state, shards, self.shard_timeout, self.shard_retries
                )
                for failure in shard_failures:
                    report.health.shard_failures.append(failure.to_dict())
                    report.health.retries += max(0, failure.attempts - 1)
                report.health.finalize()
            else:
                results = executor.run(state, shards) if shards else []
            merged: list[tuple[int, ValidationReport]] = []
            for result in results:
                merged.extend(result.unit_reports)
                # merge adoption: worker spans already point at this engine's
                # span via the shipped SpanContext, so adopting re-parents them
                if result.spans:
                    tracer.adopt(result.spans)
            merged.sort(key=lambda pair: pair[0])
            for __, unit_report in merged:
                _absorb(report, unit_report)
            report.shards_run += len(shards)
            report.executor = executor.name
            report.shard_timings.extend(
                (result.label, result.seconds) for result in results
            )
        elapsed = _clock.now() - started
        report.elapsed_seconds += elapsed
        if metrics.enabled:
            metrics.counter(
                "confvalley_validations_total",
                "Validation runs, by evaluation mode.",
            ).inc(mode="parallel")
            metrics.counter(
                "confvalley_shards_total",
                "Shards dispatched, by executor.",
            ).inc(len(shards), executor=executor.name)
            shard_seconds = metrics.histogram(
                "confvalley_shard_seconds",
                "Per-shard evaluation wall clock.",
            )
            for result in results:
                shard_seconds.observe(result.seconds, executor=executor.name)
            metrics.histogram(
                "confvalley_validation_seconds",
                "End-to-end evaluation wall clock per validation run.",
            ).observe(elapsed)
            if report.violations:
                metrics.counter(
                    "confvalley_violations_total",
                    "Violations found across all validation runs.",
                ).inc(len(report.violations))
        return report
