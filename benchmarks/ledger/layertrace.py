"""Layer tracing for the ledger's traced run.

Each hook wraps one public function of the program at the place its callers
look it up: a class attribute for methods, or the importing module's global
for functions imported by name (``repro.service.diff_stores``, not
``repro.repository.versioned.diff_stores``).  Every call then records one
span: layer name, start, end, parent span, the op it belongs to, and the
layer's *self* time, which a per-thread stack derives by subtracting the
time of the wrapped calls nested inside it.

Spans live in memory and are written once, at exit, as Chrome-trace JSON.
Nothing under ``src/`` is modified; a hook whose target no longer exists is
reported as missing instead of failing the run, so a refactor of the program
can never break the end-to-end comparison.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time

__all__ = ["Hook", "HOOKS", "LAYERS", "LayerTracer"]


class Hook:
    """One wrapped callable.

    ``count(args, result)`` returns counters folded into the span (instances
    parsed, bytes, statements, ...).  ``op(args, result)`` names the op the
    call belongs to; with ``retro`` the op is known only from the result, and
    is assigned on return to the span and to every span the call nested.
    A hook with ``layer=None`` only scopes an op id and records no span.
    """

    def __init__(self, layer, module, path, count=None, op=None, retro=False):
        self.layer = layer
        self.module = module
        self.path = path
        self.count = count
        self.op = op
        self.retro = retro

    @property
    def name(self) -> str:
        return f"{self.module}.{self.path}"


def _parse_counts(args, result):
    return {"instances": len(result), "bytes": len(args[1])}


def _evaluator_counts(args, result):
    return {"statements": len(args[1]), "violations": len(result.violations)}


HOOKS = (
    # Driver.parse is overridden by every format; one hook per registered
    # driver class is added at install time (see LayerTracer._driver_hooks)
    Hook("drivers.parse", "repro.drivers.base", "Driver.parse_bytes"),
    Hook("repository.add_all", "repro.repository.store", "ConfigStore.add_all"),
    Hook("repository.query", "repro.repository.store", "ConfigStore.query"),
    Hook("repository.diff", "repro.service", "diff_stores"),
    Hook("cpl.parse", "repro.core.session", "parse"),
    Hook("core.compiler.optimize", "repro.core.session", "optimize_statements"),
    Hook("core.evaluator.run", "repro.core.evaluator", "Evaluator.run",
         count=_evaluator_counts),
    Hook("core.incremental.affected", "repro.core.incremental",
         "DependencyIndex.affected"),
    Hook("parallel.engine.evaluate_shard", "repro.service", "evaluate_shard"),
    Hook("runtime.probe", "repro.runtime.info", "RuntimeProvider.probe"),
    Hook("runtime.read_bytes", "repro.runtime.info", "RuntimeProvider.read_bytes"),
    Hook("observability.analytics", "repro.observability.analytics",
         "SpecAnalytics.record_scan"),
    Hook("service.scan", "repro.service", "ValidationService.scan"),
    Hook("core.report.fingerprint", "repro.core.report",
         "ValidationReport.fingerprint"),
    Hook("core.report.to_dict", "repro.core.report", "ValidationReport.to_dict"),
    Hook("jobs.submit", "repro.jobs.service", "JobService.submit",
         op=lambda args, result: result[0].id, retro=True),
    Hook("jobs.journal_append", "repro.jobs.journal", "JobJournal.append"),
    Hook("jobs.executor", "repro.jobs.worker", "JobExecutor.validate",
         op=lambda args, result: args[1].id),
    # op scopes on the pool thread: the claim's journal append happens
    # before the job runs, the terminal append after it
    Hook(None, "repro.jobs.service", "JobService._next_job",
         op=lambda args, result: result.id if result is not None else None,
         retro=True),
    Hook(None, "repro.jobs.service", "JobService._run_job",
         op=lambda args, result: args[1].id),
)

#: every layer a hook can record, in report order
LAYERS = tuple(dict.fromkeys(hook.layer for hook in HOOKS if hook.layer))


def _resolve(hook):
    """``(owner, attribute name, original)`` or raise LookupError."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError as exc:
        raise LookupError(f"cannot import {hook.module}: {exc}") from None
    *parents, attribute = hook.path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{hook.name}: no {part!r}")
    if isinstance(owner, type):
        # only an attribute the class defines itself; wrapping an inherited
        # one would shadow the base class's own hook and count twice
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if not callable(original):
        raise LookupError(f"{hook.name}: not a callable attribute")
    return owner, attribute, original


class _Thread(threading.local):
    def __init__(self):
        self.frames = []   # [span id, time of nested wrapped calls]
        self.spans = None  # this thread's span list, registered lazily
        self.op = None


class LayerTracer:
    """Installs the hooks and keeps every span in memory."""

    def __init__(self):
        self._local = _Thread()
        self._lock = threading.Lock()
        self._span_lists = []
        self._ids = itertools.count(1)
        self.origin = time.perf_counter()
        #: hook name -> why it could not be installed
        self.unresolved = {}

    # -- installation ----------------------------------------------------

    def _driver_hooks(self):
        try:
            drivers = importlib.import_module("repro.drivers")
            classes = {type(drivers.get_driver(n)) for n in drivers.driver_names()}
        except (ImportError, AttributeError, LookupError) as exc:
            self.unresolved["repro.drivers.*.parse"] = str(exc)
            return []
        return [
            Hook("drivers.parse", cls.__module__, f"{cls.__name__}.parse",
                 count=_parse_counts)
            for cls in sorted(classes, key=lambda cls: cls.__name__)
            if "parse" in cls.__dict__
        ]

    def install(self):
        """Wrap every hook that resolves; returns self."""
        for hook in self._driver_hooks() + list(HOOKS):
            try:
                owner, attribute, original = _resolve(hook)
            except LookupError as exc:
                self.unresolved[hook.name] = str(exc)
                continue
            setattr(owner, attribute, self._wrap(hook, original))
        return self

    # -- recording ---------------------------------------------------------

    def set_op(self, op):
        """Attribute the calling thread's next spans to ``op``."""
        self._local.op = op

    def _spans(self, local):
        if local.spans is None:
            local.spans = []
            with self._lock:
                self._span_lists.append((threading.get_ident(), local.spans))
        return local.spans

    def _wrap(self, hook, original):
        tracer = self
        layer = hook.layer
        count = hook.count
        op_of = hook.op
        retro = hook.retro
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            local = tracer._local
            spans = tracer._spans(local)
            frames = local.frames
            outer_op = local.op
            mark = len(spans)
            if op_of is not None and not retro:
                local.op = op_of(args, None)
            span_id = next(tracer._ids)
            frames.append([span_id, 0.0])
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                __, nested = frames.pop()
                duration = end - start
                if frames:
                    frames[-1][1] += duration
                op = local.op
                if op_of is not None:
                    if retro and result is not None:
                        op = op_of(args, result)
                        for span in spans[mark:]:
                            if span[6] is None:
                                span[6] = op
                    local.op = outer_op
                if layer is not None:
                    counts = None
                    if count is not None and result is not None:
                        counts = count(args, result)
                    spans.append([
                        span_id,
                        frames[-1][0] if frames else 0,
                        layer,
                        start,
                        end,
                        duration - nested,
                        op,
                        counts,
                    ])

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapped")
        return wrapper

    # -- reading -------------------------------------------------------------

    def spans(self):
        with self._lock:
            lists = list(self._span_lists)
        for thread_id, spans in lists:
            for span in list(spans):
                yield thread_id, span

    def summarize(self, ops) -> dict:
        """Per-layer totals over the spans of ``ops`` (a set of op ids):
        ``{layer: {"self_s", "calls", <counter>: total}}``."""
        totals = {}
        for __, span in self.spans():
            if span[6] not in ops:
                continue
            row = totals.setdefault(span[2], {"self_s": 0.0, "calls": 0})
            row["self_s"] += span[5]
            row["calls"] += 1
            if span[7]:
                for key, value in span[7].items():
                    row[key] = row.get(key, 0) + value
        return totals

    def write_chrome_trace(self, path: str) -> int:
        """Write every span as a Chrome ``trace_event`` file; returns the
        number of events.  Load it in chrome://tracing or ui.perfetto.dev."""
        threads = {}
        events = []
        for thread_id, span in self.spans():
            span_id, parent, layer, start, end, self_s, op, counts = span
            args = {"id": span_id, "parent": parent, "op": op,
                    "self_us": round(self_s * 1e6, 1)}
            if counts:
                args.update(counts)
            events.append({
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 1),
                "dur": round((end - start) * 1e6, 1),
                "pid": 1,
                "tid": threads.setdefault(thread_id, len(threads) + 1),
                "args": args,
            })
        events.sort(key=lambda event: event["ts"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)
