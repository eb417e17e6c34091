"""Self-tests of the benchmark ledger, at tiny scale and 1 s windows.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from layertrace import LAYERS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def ledger(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "ledger" / "run.py"),
         "--tiny", "--seconds", "1", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


def _run_all(tmp_path_factory, *args):
    out = tmp_path_factory.mktemp("ledger") / "result.json"
    done = ledger(*args, "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run_all(tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run_all(tmp_path_factory, "--trace")


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_printed_with_its_unit(kind, untraced, traced):
    done, __ = untraced if kind == "end_to_end" else traced
    lines = {tuple(line.split()[:2]): line.split()[2:] for line in done.stdout.splitlines()
             if len(line.split()) == 4}
    for workload in WORKLOADS:
        for metric in DECLARED[kind]:
            value, unit = lines[(workload, metric["name"])]
            assert unit == metric["unit"]
            float(value)
    final = json.loads(done.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    assert len(final["metrics"]) == len(WORKLOADS) * len(DECLARED[kind])


def test_every_hook_fires_in_the_traced_run(traced):
    __, document = traced
    fired = set()
    for workload, result in document["workloads"].items():
        assert result["missing_hooks"] == [], workload
        metrics = result["metrics"]
        fired |= {layer for layer in LAYERS if metrics[f"{layer}_s"]["value"] > 0}
        if workload != "jobs_a":  # job time also waits in the queue
            assert metrics["trace.coverage"]["value"] >= 0.9, workload
    assert fired == set(LAYERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_expected_answer_fails_every_op(workload):
    done = ledger("--workload", workload, "--wrong-answer")
    assert done.returncode == 1
    assert f"{workload} failed_ratio 1 ratio" in done.stdout.splitlines()
    final = json.loads(done.stdout.splitlines()[-1])
    assert not final["correct"] and final["failed"] == final["attempted"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = ledger(cwd=tmp_path)
    assert done.returncode not in (0, None)
    assert '"correct"' not in done.stdout


def _document(latency, setup, rss=40.0):
    metrics = {"latency_p50_s": {"value": latency, "unit": "s"},
               "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workloads": {"scan_a": {"metrics": metrics}}}


def _compare(tmp_path, parent, change):
    """Labels of scan_a's rows and whether an end-to-end metric regressed."""
    ledger_file = tmp_path / "ledger.json"
    ledger_file.write_text(json.dumps({"run_sets": {"parent": parent, "change": change}}))
    rows, regressed = compare.compare([f"{ledger_file}:parent"],
                                      [f"{ledger_file}:change"], DECLARED)
    return {name: verdict for name, __, *___, verdict in rows}, regressed


NOISE = [0.0, 0.01, -0.01, 0.005, -0.005, 0.012, -0.008, 0.003, -0.002, 0.007]


def test_compare_flags_a_twenty_percent_regression(tmp_path):
    # latency is recorded without a bound (the pair rule labels it); set-up
    # time is gated by its BENCHMARK.json bound
    parent = [_document(0.200 * (1 + n), 0.400 * (1 + n)) for n in NOISE]
    change = [_document(0.240 * (1 - n), 0.480 * (1 - n)) for n in NOISE]
    verdicts, regressed = _compare(tmp_path, parent, change)
    assert verdicts == {"latency_p50_s": "regressed", "setup_s": "regressed",
                        "peak_rss_mb": "unchanged"}
    assert regressed
    verdicts, regressed = _compare(tmp_path, change, parent)
    assert verdicts["latency_p50_s"] == verdicts["setup_s"] == "improved"
    assert not regressed


def test_compare_leaves_a_small_gap_under_wide_spread_unresolved(tmp_path):
    # the parent's quartiles lie 1.2 bounds apart; every change run is worse
    # than every parent run, but the medians differ by less than the bound
    bound = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}["setup_s"]
    low, high = 0.400 * (1 - 0.6 * bound), 0.400 * (1 + 0.6 * bound)
    parent = [_document(0.200, low if i % 2 else high) for i in range(10)]
    change = [_document(0.200, 0.400 * (1 + 0.7 * bound) + i * 1e-6) for i in range(10)]
    verdicts, regressed = _compare(tmp_path, parent, change)
    assert verdicts["setup_s"] == "unresolved"
    assert not regressed
