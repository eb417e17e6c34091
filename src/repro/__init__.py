"""ConfValley — a systematic configuration validation framework.

Reproduction of *ConfValley: A Systematic Configuration Validation Framework
for Cloud Services* (Huang, Bolosky, Singh, Zhou — EuroSys 2015).

Quickstart::

    from repro import ValidationSession

    session = ValidationSession()
    session.load_text("ini", "[fabric]\\nRecoveryAttempts = 3\\n")
    report = session.validate("$fabric.RecoveryAttempts -> int & [1, 10]")
    assert report.passed

Public surface (each name loads its module on first use; see
:mod:`repro._exports`):

* :class:`ValidationSession` — load configuration sources, run CPL specs
* :class:`ValidationPolicy`, :class:`ValidationReport`, :class:`Violation`
* :class:`ConfigStore` and the driver registry (:func:`get_driver`)
* :class:`InferenceEngine` — mine CPL specifications from good data
* :func:`parse` — the CPL parser, for tooling
* :class:`ResiliencePolicy` and :mod:`repro.resilience` — fault-tolerant
  validation: source quarantine, spec circuit breakers, shard supervision,
  and the deterministic chaos harness (:class:`FaultyRuntimeProvider`)
* :mod:`repro.observability` — pipeline tracing, the metrics registry and
  exposition endpoints; nil-cost no-op singletons until
  ``observability.enable()``
* :mod:`repro.lifecycle` — inferred-spec lifecycle: the shadow lane,
  drift-driven promotion/demotion (:class:`PromotionPolicy`,
  :class:`SpecLifecycleManager`) and continuous re-inference
  (:class:`ReInferencer`)
"""

from . import _exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".": ("observability",),
    ".core.evaluator": ("Evaluator",),
    ".core.incremental": ("DependencyIndex", "IncrementalValidator"),
    ".core.policy": ("ValidationPolicy",),
    ".core.report": ("HealthBlock", "Severity", "ValidationReport", "Violation"),
    ".core.session": ("ValidationSession",),
    ".cpl": ("parse", "parse_predicate", "tokenize"),
    ".drivers": ("driver_names", "get_driver", "register_driver"),
    ".errors": ("ConfValleyError", "CPLSyntaxError", "DriverError"),
    ".inference.engine": ("InferenceEngine",),
    ".repository.keys": ("InstanceKey", "KeyPattern", "parse_pattern"),
    ".repository.store": ("ConfigStore",),
    ".repository.versioned": ("ChangeSet", "ConfigRepository", "Snapshot"),
    ".parallel.cache": ("SpecCache",),
    ".parallel.engine": ("ParallelValidator",),
    ".resilience.breaker": ("SpecCircuitBreaker",),
    ".resilience.chaos": ("FaultPlan", "FaultyRuntimeProvider"),
    ".resilience.policy": ("ResiliencePolicy",),
    ".resilience.sources": ("SourceFailure",),
    ".observability.metrics": ("MetricsRegistry",),
    ".observability.tracing": ("Tracer",),
    ".lifecycle.manager": ("SpecLifecycleManager",),
    ".lifecycle.model": ("SpecRecord", "SpecState"),
    ".lifecycle.policy": ("PromotionPolicy",),
    ".lifecycle.reinfer": ("ReInferencer",),
    ".lifecycle.shadow": ("ShadowLane",),
    ".runtime": ("FakeClock", "FakeFileSystem", "HostRuntime", "MonotonicClock",
                 "StaticRuntime"),
    ".service": ("ScanResult", "SourceSpec", "ValidationService"),
}, local=("__version__",))
