"""Incremental validation: change-driven spec selection + soundness."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigStore, ValidationSession
from repro.core.incremental import check_change, plan_delta
from repro.repository.keys import parse_instance_key
from repro.repository.model import ConfigInstance
from repro.repository.versioned import diff_stores


def inst(key_text, value):
    return ConfigInstance(parse_instance_key(key_text), value, "test")


SPECS = """
let SmallInt := int & [1, 60]
$Cluster.Timeout -> @SmallInt
$Cluster.Mode -> {'fast', 'safe'}
$Node.IP -> ip & unique
$*Port* -> port
compartment Cluster {
  $Floor <= $Ceiling
}
"""

BASE = [
    inst("Cluster::C1.Timeout", "30"),
    inst("Cluster::C1.Mode", "fast"),
    inst("Cluster::C1.Floor", "1"),
    inst("Cluster::C1.Ceiling", "9"),
    inst("Node::N1.IP", "10.0.0.1"),
    inst("Node::N2.IP", "10.0.0.2"),
    inst("Fabric.AgentPort", "8080"),
]


def store_of(instances):
    store = ConfigStore()
    store.add_all(instances)
    return store


def check(new_instances, baseline=BASE):
    """The delta check of BASE → ``new_instances`` against SPECS."""
    session = ValidationSession(store=store_of(new_instances))
    return check_change(session, SPECS, store_of(baseline))


def replaced(key, value):
    return [inst(key, value) if i.key.render() == key else i for i in BASE]


class TestSelection:
    def test_only_touched_specs_selected(self):
        plan = plan_delta(ValidationSession(), SPECS)
        change = diff_stores(
            store_of(BASE), store_of(replaced("Cluster::C1.Timeout", "45"))
        )
        selected = plan.select(change)
        # lets are not units: they are replayed before every selected unit
        assert [unit.statement.text for unit in selected] == [
            "$Cluster.Timeout -> @SmallInt"
        ]

    def test_wildcard_specs_selected_when_matching(self):
        report = check(replaced("Fabric.AgentPort", "9090"))
        assert report.passed
        assert report.delta_info["selected"] == 1  # $*Port*

    def test_compartment_spec_selected_by_member_change(self):
        report = check(replaced("Cluster::C1.Ceiling", "0"))
        assert len(report.violations) == 1  # Floor 1 > Ceiling 0

    def test_empty_change_selects_nothing(self):
        report = check(list(BASE))
        assert report.specs_evaluated == 0
        info = report.delta_info
        assert info["mode"] == "delta"
        assert info["selected"] == 0
        assert info["skipped"] == info["statements_total"]

    def test_lets_always_retained(self):
        report = check(replaced("Cluster::C1.Timeout", "999"))
        assert len(report.violations) == 1  # @SmallInt resolved fine

    def test_aggregate_rerun_over_full_domain(self):
        # change one Node IP to collide with the *unchanged* other one
        report = check(replaced("Node::N2.IP", "10.0.0.1"))
        assert len(report.violations) == 1
        assert report.violations[0].constraint == "unique"

    def test_load_commands_rejected(self, tmp_path):
        # compiling a load command loads a source: no change set covers
        # that, so the plan refuses delta selection and says why
        (tmp_path / "x.ini").write_text("[s]\nK = 1\n")
        session = ValidationSession(base_dir=str(tmp_path))
        plan = plan_delta(session, "load 'ini' 'x.ini'\n$K -> int")
        assert plan.reason == "the program has load/include commands"
        assert plan.index is None
        report = check_change(
            ValidationSession(base_dir=str(tmp_path)),
            "load 'ini' 'x.ini'\n$K -> int",
            None,
        )
        assert report.delta_info["mode"] == "full-fallback"
        assert report.passed and report.specs_evaluated == 1

    def test_validate_full_baseline(self):
        plan = plan_delta(ValidationSession(), SPECS)
        assert plan.select(None) == plan.units
        report = check(list(BASE), baseline=[])  # no baseline: all added
        assert report.passed
        assert report.delta_info["selected"] == report.delta_info["statements_total"]


# ---------------------------------------------------------------------------
# Soundness property: incremental == full, restricted to affected statements
# ---------------------------------------------------------------------------

_MUTATIONS = {
    "Cluster::C1.Timeout": ["45", "999", "x"],
    "Cluster::C1.Mode": ["safe", "fsat"],
    "Cluster::C1.Ceiling": ["0", "100"],
    "Node::N2.IP": ["10.0.0.1", "oops", "10.0.0.9"],
    "Fabric.AgentPort": ["9090", "70000", "abc"],
}


@given(
    st.dictionaries(
        keys=st.sampled_from(sorted(_MUTATIONS)),
        values=st.integers(min_value=0, max_value=2),
        min_size=0,
        max_size=4,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_incremental_matches_full(mutations):
    new_instances = []
    for instance in BASE:
        key = instance.key.render()
        if key in mutations:
            options = _MUTATIONS[key]
            value = options[mutations[key] % len(options)]
            new_instances.append(inst(key, value))
        else:
            new_instances.append(instance)
    baseline, new = store_of(BASE), store_of(new_instances)
    change = diff_stores(baseline, new)

    incremental = check_change(ValidationSession(store=new), SPECS, baseline)
    full = ValidationSession(store=new).validate(SPECS)

    def signature(report):
        return sorted({(v.key, v.value, v.constraint) for v in report.violations})

    # every incremental violation appears in the full run …
    assert set(signature(incremental)) <= set(signature(full))
    # … and every full-run violation on a *touched class* is found
    touched = change.touched_classes()
    missed = [
        entry
        for entry in signature(full)
        if entry not in set(signature(incremental))
        and parse_instance_key(entry[0]).class_key in touched
    ]
    assert not missed
