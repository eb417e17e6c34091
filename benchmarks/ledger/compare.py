"""Compare two sets of ledger runs, metric by metric and workload by workload.

    python benchmarks/ledger/compare.py PARENT.json... -- CHANGE.json...

Each file is a result written by ``run.py --out``, or ``LEDGER.json:SET`` to
pick one run set of a ledger entry such as ``results/BENCH_11.json``.  Runs
pair up in the order given (parent i with change i; alternate which side ran
first).  For every declared metric, and every one ``run.py`` records without
a bound, the table shows each side's median and quartiles, the share of
pairs the change wins, and a label:

* ``improved`` -- over at least ten pairs, the change wins at least 9/10 of
  them and the medians differ by more than the parent's interquartile range;
* ``regressed`` -- an end-to-end metric's change median is worse than the
  parent's by more than its ``BENCHMARK.json`` bound (for a per-layer metric,
  or one ``run.py`` records without a bound, the mirror of the ``improved``
  rule);
* ``unresolved`` -- not regressed, but the parent's own spread is wider than
  the bound, so the runs cannot tell, unless every change run beats every
  parent run;
* ``unchanged`` -- otherwise.

Exits 1 when any end-to-end metric of ``BENCHMARK.json`` regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import UNGATED

ROOT = Path(__file__).resolve().parents[2]
#: the pair-win rule needs this many pairs before it can call a difference
MIN_PAIRS = 10


def load_runs(argument: str) -> list:
    """One run document, or every document of ``LEDGER.json:SET``."""
    path, __, run_set = argument.partition(":")
    document = json.loads(Path(path).read_text())
    if "run_sets" in document:
        if run_set not in document["run_sets"]:
            sets = ", ".join(sorted(document["run_sets"]))
            raise SystemExit(f"{path}: name a run set as {path}:SET ({sets})")
        return document["run_sets"][run_set]
    return [document]


def collect(arguments: list) -> dict:
    """``{(workload, metric): [value per run]}`` in argument order."""
    values = {}
    for argument in arguments:
        for document in load_runs(argument):
            for workload, result in document["workloads"].items():
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), []).append(metric["value"])
    return values


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def label(parent: list, change: list, lower_better: bool, bound) -> tuple:
    """``(label, win share)`` for one metric on one workload."""
    sign = -1 if lower_better else 1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    gap = sign * (c_median - p_median)  # > 0: the change is better
    iqr = p_q3 - p_q1
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= 0.9 * len(pairs) and gap > iqr:
        return "improved", share
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and -gap > iqr:
            return "regressed", share
        return "unchanged", share
    scale = abs(p_median) or 1.0
    if -gap / scale > bound:
        return "regressed", share
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr / scale > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def compare(parent_args: list, change_args: list, declared: dict) -> tuple:
    """Rows of the comparison table and whether an end-to-end metric regressed."""
    parent, change = collect(parent_args), collect(change_args)
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = {metric["name"] for metric in metrics}
    metrics += [{"name": name, "better": better}
                for name, (__, better) in UNGATED.items() if name not in names]
    rows, regressed = [], False
    for metric in metrics:
        bound = metric.get("bound")
        for workload, name in sorted(key for key in parent if key[1] == metric["name"]):
            before, after = parent[(workload, name)], change.get((workload, name))
            if not after or not any(before + after):
                continue  # not measured on one side, or a layer off this path
            verdict, share = label(before, after, metric["better"] == "lower", bound)
            regressed |= verdict == "regressed" and bound is not None
            rows.append((name, workload, quartiles(before), quartiles(after),
                         share, len(before), len(after), verdict))
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, regressed = compare(argv[:split], argv[split + 1:], declared)
    print(f"{'metric':32} {'workload':8} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'wins':>5}  label")
    for name, workload, before, after, share, n_before, n_after, verdict in rows:
        print(f"{name:32} {workload:8} "
              f"{before[1]:<10.4g} [{before[0]:.4g}, {before[2]:.4g}] n={n_before:<3} "
              f"{after[1]:<10.4g} [{after[0]:.4g}, {after[2]:.4g}] n={n_after:<3} "
              f"{share:5.0%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
