"""Ablation — incremental (change-driven) vs full validation per check-in.

DESIGN.md's check-in scenario (paper §3.2) gates every configuration update
with validation.  This ablation quantifies what the incremental selector in
:mod:`repro.core.incremental` buys over re-running the whole corpus on each
small update, on the Type A snapshot with its expert corpus plus the
inferred corpus (hundreds of specs — the realistic production mix).

Shape claims: single-parameter changes select a small fraction of the
corpus; incremental validation is ≥2× faster per check-in than full; both
report identical violations for the touched classes.

The second half benchmarks the *service-level* delta path (ISSUE-6): a
``ValidationService(delta=True)`` twin driven through single-key edits
must re-validate under 10% of the statements per edit while producing
reports whose ``fingerprint()`` is byte-identical to a full-scan twin's.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import (
    ConfigStore,
    InferenceEngine,
    SourceSpec,
    SpecCache,
    ValidationService,
    ValidationSession,
    check_change,
    plan_delta,
)
from repro.benchutil import format_table
from repro.repository.model import ConfigInstance
from repro.synthetic import EXPERT_SPECS


def store_of(instances):
    store = ConfigStore()
    store.add_all(instances)
    return store


@pytest.fixture(scope="module")
def corpus(type_a_store):
    inferred = InferenceEngine().infer(type_a_store).to_cpl()
    return EXPERT_SPECS["type_a"] + "\n" + inferred


@pytest.fixture(scope="module")
def checkins(type_a_dataset):
    """The base snapshot and ten single-parameter check-ins derived from it."""
    base = type_a_dataset.parse()
    edits = []
    taken = set()
    for instance in base:
        leaf = instance.key.leaf_name
        if leaf in taken:
            continue
        if "TimeoutSeconds" in leaf or leaf in ("MachinePool", "FccDnsName"):
            taken.add(leaf)
            edits.append(instance)
        if len(edits) == 10:
            break
    candidates = [
        [
            ConfigInstance(i.key, "7" if i.key == edit.key else i.value, i.source)
            for i in base
        ]
        for edit in edits
    ]
    return base, candidates


def test_incremental_ablation(benchmark, emit, corpus, checkins, type_a_store):
    base, candidates = checkins
    baseline = store_of(base)
    stores = [store_of(candidate) for candidate in candidates]
    # a gate compiles its corpus once; later check-ins hit the spec cache
    cache = SpecCache()
    statement_count = len(plan_delta(ValidationSession(spec_cache=cache), corpus).units)

    def run_incremental():
        total_selected = 0
        elapsed = 0.0
        for store in stores:
            started = time.perf_counter()
            report = check_change(
                ValidationSession(store=store, spec_cache=cache), corpus, baseline
            )
            elapsed += time.perf_counter() - started
            total_selected += report.delta_info["selected"]
        return total_selected, elapsed

    selected, incremental_seconds = benchmark.pedantic(
        run_incremental, rounds=1, iterations=1
    )

    started = time.perf_counter()
    for store in stores:
        ValidationSession(store=store).validate(corpus)
    full_seconds = time.perf_counter() - started

    per_checkin_selected = selected / len(stores)
    emit(
        "incremental_ablation",
        format_table(
            ["Strategy", "Specs/check-in", "Total time (s)"],
            [
                ("full corpus", statement_count, f"{full_seconds:.3f}"),
                ("incremental", f"{per_checkin_selected:.1f}",
                 f"{incremental_seconds:.3f}"),
            ],
        )
        + f"\nspeedup: {full_seconds / max(incremental_seconds, 1e-9):.1f}x "
        f"over {len(stores)} single-parameter check-ins",
    )
    # small change → small spec selection
    assert per_checkin_selected < statement_count / 4
    # and a real end-to-end win
    assert incremental_seconds * 2 < full_seconds


def test_incremental_agrees_with_full_on_faulty_checkin(corpus, checkins, benchmark):
    base, __ = checkins
    broken = [
        ConfigInstance(
            i.key,
            "" if i.key.leaf_name == "FccDnsName" else i.value,
            i.source,
        )
        for i in base
    ]
    store = store_of(broken)

    incremental = benchmark.pedantic(
        check_change,
        args=(ValidationSession(store=store), corpus, store_of(base)),
        rounds=1,
        iterations=1,
    )
    full = ValidationSession(store=store).validate(corpus)

    incremental_keys = {(v.key, v.constraint) for v in incremental.violations}
    full_keys = {
        (v.key, v.constraint)
        for v in full.violations
        if "FccDnsName" in v.key
    }
    assert incremental_keys == full_keys
    assert incremental_keys  # the fault is actually reported


# ---------------------------------------------------------------------------
# Service-level delta scans (ISSUE-6 acceptance gate)
# ---------------------------------------------------------------------------

DELTA_CLASSES = 12
DELTA_KEYS = 10  # DELTA_CLASSES * DELTA_KEYS = 120 statements


def _write_corpus(tmp_path, values: dict):
    """One spec statement and one INI key per (class, key) pair."""
    spec_lines, ini_lines = [], []
    for c in range(DELTA_CLASSES):
        ini_lines.append(f"[svc{c}]")
        for k in range(DELTA_KEYS):
            # distinct ranges keep the compiler's statement merging from
            # collapsing the corpus into one evaluation unit
            ceiling = 1000 + c * DELTA_KEYS + k
            spec_lines.append(f"$svc{c}.Param{k} -> int & [0, {ceiling}]")
            ini_lines.append(f"Param{k} = {values.get((c, k), (c * 37 + k) % 900)}")
    spec = tmp_path / "spec.cpl"
    config = tmp_path / "corpus.ini"
    spec.write_text("\n".join(spec_lines) + "\n")
    config.write_text("\n".join(ini_lines) + "\n")
    stat = os.stat(config)
    os.utime(config, ns=(stat.st_atime_ns + 1_000_000, stat.st_mtime_ns + 1_000_000))
    return spec, config


def test_delta_service_scoping_and_parity(tmp_path, emit, benchmark):
    """Steady-state re-validation cost must scale with the change size.

    Ten single-key check-ins against a 120-statement corpus: the delta
    twin must select <10% of the statements per check-in and every one of
    its reports must fingerprint identically to the full twin's.
    """
    spec, config = _write_corpus(tmp_path, {})
    sources = [SourceSpec("ini", str(config))]
    full = ValidationService(str(spec), sources)
    delta = ValidationService(str(spec), sources, delta=True)

    bootstrap_full = full.run_once()
    bootstrap_delta = delta.run_once()
    assert bootstrap_delta.report.fingerprint() == bootstrap_full.report.fingerprint()
    assert bootstrap_delta.delta["mode"] == "bootstrap"

    checkins = 10
    values: dict = {}
    timings = {"full": 0.0, "delta": 0.0}
    fractions = []

    def run_checkins():
        for index in range(checkins):
            edit = (index % DELTA_CLASSES, (index * 3) % DELTA_KEYS)
            values[edit] = 500 + index
            _write_corpus(tmp_path, values)
            started = time.perf_counter()
            full_result = full.run_once()
            timings["full"] += time.perf_counter() - started
            started = time.perf_counter()
            delta_result = delta.run_once()
            timings["delta"] += time.perf_counter() - started
            assert (
                delta_result.report.fingerprint()
                == full_result.report.fingerprint()
            ), f"check-in {index}: delta report diverged from full scan"
            assert delta_result.delta["mode"] == "delta"
            fractions.append(
                delta_result.delta["selected"]
                / delta_result.delta["statements_total"]
            )

    benchmark.pedantic(run_checkins, rounds=1, iterations=1)

    mean_fraction = sum(fractions) / len(fractions)
    stats = delta.stats()["delta"]
    emit(
        "delta_service",
        format_table(
            ["Strategy", "Statements/check-in", "Total time (s)"],
            [
                ("full scan", DELTA_CLASSES * DELTA_KEYS, f"{timings['full']:.3f}"),
                (
                    "delta scan",
                    f"{mean_fraction * DELTA_CLASSES * DELTA_KEYS:.1f}",
                    f"{timings['delta']:.3f}",
                ),
            ],
        )
        + f"\nmean selection: {mean_fraction:.1%} of the corpus over "
        f"{checkins} single-key check-ins; fallbacks: {stats['fallbacks']}; "
        f"every delta report fingerprint-identical to its full twin",
    )
    # the ISSUE-6 acceptance gate: a single-key change re-validates <10%
    assert mean_fraction < 0.10, f"delta selected {mean_fraction:.1%}"
    assert max(fractions) < 0.10
    assert stats["fallbacks"] == 0
