"""Import contract: each entry point loads only the layers its run uses.

Every case runs in a fresh interpreter, reaches a first verdict, and then
checks ``sys.modules``.  The checks are on module sets, not timings, so they
are deterministic: a change that pulls a heavy module (``yaml``,
``http.server``, ``multiprocessing``) or an unrelated subsystem back onto a
path fails here instead of showing up later as slower start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

FLEET = (
    '<Cluster Name="e1"><Setting Key="StartIP" Value="10.0.0.1"/>'
    '<Setting Key="EndIP" Value="10.0.0.9"/></Cluster>'
)
SPEC = "compartment Cluster { $StartIP <= $EndIP }\n"


def _loaded_after(tmp_path, body: str) -> set:
    """Run ``body`` in a fresh interpreter; the modules it left loaded.

    ``body`` sees ``fleet`` and ``spec`` (paths of a passing XML source and
    spec) and must assert its own verdict before returning.
    """
    (tmp_path / "fleet.xml").write_text(FLEET)
    (tmp_path / "specs.cpl").write_text(SPEC)
    script = "\n".join([
        "import json, sys",
        f"fleet, spec = {str(tmp_path / 'fleet.xml')!r}, {str(tmp_path / 'specs.cpl')!r}",
        textwrap.dedent(body),
        "print('MODULES ' + json.dumps(sorted(sys.modules)))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = [row for row in done.stdout.splitlines() if row.startswith("MODULES ")]
    return set(json.loads(line[-1][len("MODULES "):]))


def _offending(loaded: set, forbidden: tuple) -> list:
    """Forbidden modules that are loaded, or have a loaded submodule."""
    return sorted(
        name for name in forbidden
        if any(m == name or m.startswith(name + ".") for m in loaded)
    )


def test_session_validate_loads_only_the_scan_path(tmp_path):
    loaded = _loaded_after(tmp_path, """
        from repro import ValidationSession

        session = ValidationSession()
        session.load_source("xml", fleet)
        assert session.validate_file(spec).passed
    """)
    assert "repro.core.evaluator" in loaded
    assert _offending(loaded, (
        "yaml", "tomllib", "http.server", "multiprocessing",
        "repro.jobs", "repro.workflows", "repro.lifecycle", "repro.inference",
        "repro.observability.server", "repro.observability.federation",
        # delta planning, sharding and change sets stay off the plain path
        "repro.core.incremental", "repro.parallel", "repro.repository.versioned",
    )) == []


def test_job_round_trip_skips_server_and_unused_subsystems(tmp_path):
    loaded = _loaded_after(tmp_path, """
        from repro.jobs import JobService, JobState

        service = JobService(workers=1, journal_path="journal.jsonl")
        try:
            job, __ = service.submit(
                spec=open(spec).read(), sources=[{"format": "xml", "path": fleet}]
            )
            job = service.wait(job.id, timeout=60)
            assert job.state == JobState.DONE and job.result["passed"], job.result
        finally:
            service.close()
    """)
    assert "repro.jobs.worker" in loaded
    assert _offending(loaded, (
        "http.server", "yaml", "repro.workflows", "repro.inference",
    )) == []


def test_cli_validate_skips_inference(tmp_path):
    loaded = _loaded_after(tmp_path, """
        from repro.console.cli import main

        assert main(["validate", spec, "--source", "xml:" + fleet]) == 0
    """)
    assert _offending(loaded, ("repro.inference", "repro.workflows", "yaml")) == []


def test_cli_gate_skips_the_job_service(tmp_path):
    # the change check is shared with delta jobs; it must not live there
    loaded = _loaded_after(tmp_path, """
        from repro.console.cli import main

        assert main(["gate", spec, "--new", "xml:" + fleet]) == 0
    """)
    assert "repro.core.incremental" in loaded
    assert _offending(loaded, ("repro.jobs", "repro.inference", "yaml")) == []
