"""Cross-entry-point parity of delta validation.

``confvalley gate``, ``mode: delta`` jobs and a ``ValidationService``
built with ``delta=True`` share one delta planner
(:func:`repro.core.incremental.plan_delta`); the gate and the jobs also
share one change check (:func:`repro.core.incremental.check_change`).
One table of ``(spec, old sources, new sources)`` cases drives all three:

* the ``gate --json`` verdict and the delta job's verdict agree on the
  verdict, the fingerprint digest, the selected-statement count and the
  fallback mode (their ``delta`` blocks are identical);
* a delta service that bootstraps on the old files and then scans the new
  ones reports the same ``fingerprint()`` as a fresh full scan.

The table holds the two programs the gate used to crash on (a nested
``let``; an ``include``), plus the adversarial change sets of
``tests/test_delta.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import SourceSpec, ValidationService
from repro.console import main
from repro.jobs import JobService, JobState

from .test_delta import (
    BASELINE_INI,
    CHANGED_INI,
    CLUSTER_INI,
    JOB_SPEC,
    NODES_INI,
    POOLS_INI,
    RICH_SPEC,
    rewrite,
)

NESTED_LET_SPEC = "namespace A {\n  let X := int\n  $Y -> int\n}\n$B.Z -> @X\n"
INCLUDE_SPEC = "include 'inc.cpl'\n$A.Y -> int\n"
RICH_BASE = {"cluster.ini": CLUSTER_INI, "pools.ini": POOLS_INI, "nodes.ini": NODES_INI}


def rich(name, text):
    """RICH_SPEC's three files, with ``name`` rewritten to ``text``."""
    return {**RICH_BASE, name: text}


#: (id, spec, extra spec files, old sources, new sources, verdict, delta mode)
CASES = [
    ("nested-let", NESTED_LET_SPEC, {},
     {"c.kv": "A.Y=1\nB.Z=1\n"}, {"c.kv": "A.Y=1\nB.Z=notint\n"},
     "reject", "full-fallback"),
    ("include", INCLUDE_SPEC, {"inc.cpl": "$A.X -> int\n"},
     {"c.kv": "A.X=1\nA.Y=1\n"}, {"c.kv": "A.X=1\nA.Y=no\n"},
     "reject", "full-fallback"),
    ("job-spec-one-key", JOB_SPEC, {},
     {"s.ini": BASELINE_INI}, {"s.ini": CHANGED_INI}, "reject", "delta"),
    ("unchanged", RICH_SPEC, {}, RICH_BASE, RICH_BASE, "admit", "delta"),
    ("single-key", RICH_SPEC, {}, RICH_BASE,
     rich("cluster.ini", "[Cluster]\nTimeout = 45\nMode = fast\n"),
     "admit", "delta"),
    ("violation-introduced", RICH_SPEC, {}, RICH_BASE,
     rich("cluster.ini", "[Cluster]\nTimeout = 999\nMode = fast\n"),
     "reject", "delta"),
    ("foreach-target", RICH_SPEC, {}, RICH_BASE,
     rich("pools.ini", "[PoolName::1]\nPoolName = p1\n"
          "[Pool::p1]\nVip = oops\n[Pool::p2]\nVip = 10.0.0.2\n"),
     "reject", "delta"),
    ("var-widened-unreferenced-pool", RICH_SPEC, {}, RICH_BASE,
     rich("pools.ini", "[PoolName::1]\nPoolName = p1\n"
          "[Pool::p1]\nVip = 10.0.0.1\n[Pool::p2]\nVip = not-an-ip\n"),
     "admit", "delta"),
    ("free-variable-retarget", RICH_SPEC, {}, RICH_BASE,
     rich("pools.ini", "[PoolName::1]\nPoolName = p2\n"
          "[Pool::p1]\nVip = 10.0.0.1\n[Pool::p2]\nVip = not-an-ip\n"),
     "reject", "delta"),
    ("aggregate-cardinality", RICH_SPEC, {}, RICH_BASE,
     rich("nodes.ini", "[node]\nReplicas = 3\nReplicas = 5\nHttpPort = 8080\n"),
     "reject", "delta"),
    ("wildcard-pattern", RICH_SPEC, {}, RICH_BASE,
     rich("nodes.ini", "[node]\nReplicas = 3\nHttpPort = 99999\n"),
     "reject", "delta"),
    ("emptied-source", RICH_SPEC, {}, RICH_BASE, rich("pools.ini", ""),
     None, "delta"),
]


def _format(name):
    return {"ini": "ini", "kv": "keyvalue"}[name.rsplit(".", 1)[1]]


def _write_tree(root, files):
    root.mkdir(exist_ok=True)
    for name, text in files.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in files}


def _gate_verdict(spec, old, new, capsys):
    argv = ["gate", spec, "--json"]
    for name, path in old.items():
        argv += ["--old", f"{_format(name)}:{path}"]
    for name, path in new.items():
        argv += ["--new", f"{_format(name)}:{path}"]
    code = main(argv)
    verdict = json.loads(capsys.readouterr().out)
    assert code == {"admit": 0, "reject": 1}[verdict["verdict"]], verdict
    return verdict


def _job_verdict(tmp_path, spec, old, new):
    def refs(paths):
        return [{"format": _format(name), "path": path} for name, path in paths.items()]

    service = JobService(
        workers=1, journal_path=str(tmp_path / "j.jsonl"), base_dir=str(tmp_path)
    )
    try:
        job, __ = service.submit(
            spec=open(spec).read(),
            sources=refs(new),
            baseline_sources=refs(old),
            mode="delta",
        )
        done = service.wait(job.id, timeout=60)
    finally:
        service.close()
    assert done.state == JobState.DONE, done.error
    return done.result


@pytest.mark.parametrize(
    "spec_text,extra,old_files,new_files,verdict,mode",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_gate_jobs_and_service_agree(
    tmp_path, capsys, monkeypatch, spec_text, extra, old_files, new_files,
    verdict, mode,
):
    # include paths resolve against the working directory for the gate and
    # against the base directory for jobs and the service: make them one
    monkeypatch.chdir(tmp_path)
    spec = str(tmp_path / "spec.cpl")
    _write_tree(tmp_path, {"spec.cpl": spec_text, **extra})
    old = _write_tree(tmp_path / "old", old_files)
    new = _write_tree(tmp_path / "new", new_files)

    gate = _gate_verdict(spec, old, new, capsys)
    job = _job_verdict(tmp_path, spec, old, new)
    assert gate["verdict"] == job["verdict"]
    assert gate["fingerprint"] == job["fingerprint"]
    assert gate["delta"] == job["delta"]
    assert gate["statements_run"] == job["delta"]["selected"]
    assert job["delta"]["mode"] == mode
    if verdict is not None:
        assert job["verdict"] == verdict

    # the delta service: bootstrap on the old files, then scan the new ones
    watched = _write_tree(tmp_path / "watched", old_files)
    sources = [SourceSpec(_format(name), path) for name, path in watched.items()]
    service = ValidationService(spec, sources, delta=True)
    service.run_once()
    for name, text in new_files.items():
        rewrite(tmp_path / "watched" / name, text)
    scanned = service.run_once()
    full = ValidationService(spec, sources).run_once()
    assert scanned.report.fingerprint() == full.report.fingerprint()
    if mode == "full-fallback":
        assert scanned.delta is None
        assert service.stats()["delta"]["last_fallback_reason"]
    else:
        assert scanned.delta["mode"] == "delta"

