#!/usr/bin/env python3
"""Pre-check-in validation gate (paper §3.2).

"Configuration validation can be carried out at different stages of the
configuration life cycle: while editing configurations, **before
checking-in to the repository**, before deployment or at runtime."

This example wires three pieces together:

* two :class:`repro.ConfigStore` instances — the validated trunk and the
  candidate check-in,
* :func:`repro.check_change` — diffs the candidate against trunk and
  re-runs only the specifications the change can reach (cheap enough to
  gate every check-in; ``confvalley gate`` and ``mode: delta`` jobs run
  the same check),
* the expert CPL corpus for the synthetic Azure fleet.

Flow: trunk holds a validated configuration; an operator prepares a
candidate with a small change; the gate validates just the affected specs
and accepts (trunk moves to the candidate) or rejects the check-in.

Run:  python examples/precommit_gate.py
"""

from repro import ConfigStore, SpecCache, ValidationSession, check_change
from repro.repository.model import ConfigInstance
from repro.synthetic import EXPERT_SPECS, generate_type_a

SPECS = EXPERT_SPECS["type_a"]


def store_of(instances):
    store = ConfigStore()
    store.add_all(instances)
    return store


def amend(instances, key_suffix, new_value):
    """Return a copy of the configuration with one parameter changed."""
    out = []
    changed = None
    for instance in instances:
        if (
            changed is None
            and instance.key.render().endswith(key_suffix)
            and instance.value != new_value
        ):
            out.append(ConfigInstance(instance.key, new_value, instance.source))
            changed = instance
        else:
            out.append(instance)
    assert changed is not None, key_suffix
    return out, changed


def gate(trunk, candidate, cache):
    session = ValidationSession(store=candidate, spec_cache=cache)
    report = check_change(session, SPECS, trunk)
    info = report.delta_info
    print(f"  change set: {info['change']}")
    print(f"  specs run: {info['selected']} of {info['statements_total']} "
          f"(skipped {info['skipped']})")
    if report.passed:
        print("  ✔ ACCEPTED — merging to trunk")
        return True
    print(f"  ✘ REJECTED — {len(report.violations)} violation(s):")
    for violation in report.violations[:3]:
        print(f"      {violation.message}")
    return False


def main() -> int:
    print("seeding trunk with a validated fleet configuration …")
    base = generate_type_a(scale=0.15, seed=5).parse()
    trunk = store_of(base)
    cache = SpecCache()  # the corpus compiles once for every check-in
    assert ValidationSession(store=trunk, spec_cache=cache).validate(SPECS).passed
    print(f"  trunk: {len(base)} instances; full corpus passes\n")
    history = ["initial validated configuration"]

    # --- check-in 1: a legitimate replica bump ---------------------------
    print("check-in 1: bump a cluster's replica count 3 → 5")
    good, changed = amend(base, "ReplicaCountForCreateFCC", "5")
    candidate = store_of(good)
    if not gate(trunk, candidate, cache):
        return 1
    trunk = candidate
    history.append("bump replicas")

    # --- check-in 2: a fat-fingered replica count -------------------------
    print("\ncheck-in 2: fat-fingered replica count 3 → 1")
    bad, changed = amend(good, "ReplicaCountForCreateFCC", "1")
    if gate(trunk, store_of(bad), cache):
        return 1

    print(f"\ntrunk history: {history}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
