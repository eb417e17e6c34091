"""Change sets between configuration stores (``diff_stores``)."""

from __future__ import annotations

from repro import ConfigStore
from repro.repository.keys import parse_instance_key
from repro.repository.model import ConfigInstance
from repro.repository.versioned import diff_stores


def inst(key_text, value):
    return ConfigInstance(parse_instance_key(key_text), value, "test")


BASE = [
    inst("Cluster::C1.Timeout", "30"),
    inst("Cluster::C1.Mode", "fast"),
    inst("Cluster::C2.Timeout", "30"),
]


def store_of(instances):
    store = ConfigStore()
    store.add_all(instances)
    return store


class TestDiff:
    def test_diff_against_none_is_all_added(self):
        change = diff_stores(None, store_of(BASE))
        assert len(change.added) == 3
        assert not change.removed and not change.modified

    def test_modification_detected(self):
        updated = [
            inst("Cluster::C1.Timeout", "45"),   # modified
            inst("Cluster::C1.Mode", "fast"),
            inst("Cluster::C2.Timeout", "30"),
        ]
        change = diff_stores(store_of(BASE), store_of(updated))
        assert len(change.modified) == 1
        old_i, new_i = change.modified[0]
        assert old_i.value == "30" and new_i.value == "45"
        assert not change.added and not change.removed

    def test_add_and_remove(self):
        new = store_of(BASE[:-1] + [inst("Cluster::C3.Mode", "safe")])
        change = diff_stores(store_of(BASE), new)
        assert [i.key.render() for i in change.added] == ["Cluster::C3.Mode"]
        assert [i.key.render() for i in change.removed] == ["Cluster::C2.Timeout"]

    def test_identical_snapshots_empty_change(self):
        assert diff_stores(store_of(BASE), store_of(BASE)).is_empty

    def test_touched_classes(self):
        new = store_of([
            inst("Cluster::C1.Timeout", "45"),
            inst("Cluster::C1.Mode", "fast"),
            inst("Cluster::C2.Timeout", "30"),
        ])
        change = diff_stores(store_of(BASE), new)
        assert change.touched_classes() == {("Cluster", "Timeout")}
        assert "~1" in change.summary()
