"""The compact store representation: slotted records, interned segments.

Interning and slots change how instances are held, never what they mean:
value equality, hashing, pickling, copying and every report fingerprint
must stay as they were.  The memory guard is deterministic (retained
``tracemalloc`` bytes, no timing).
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro import ValidationSession
from repro.core.evaluator import Item
from repro.drivers import get_driver
from repro.repository import ConfigStore
from repro.repository import keys
from repro.repository.keys import InstanceKey, InstanceSegment, segment
from repro.repository.model import ConfigInstance
from repro.synthetic import EXPERT_SPECS
from repro.synthetic.azure import generate_type_b, generate_type_c

#: measured at 617 B per instance in a fresh interpreter (Type C @0.5, seed 3,
#: 288 instances, CPython 3.11), against 1,086 B before segments were
#: interned and records slotted; the bound leaves 20% headroom
BYTES_PER_INSTANCE_BOUND = 750


class TestSegmentSemantics:
    def test_direct_segment_equals_interned(self):
        for args in (("Cloud",), ("Cloud", "CO2"), ("Cloud", None, 3)):
            direct = InstanceSegment(*args)
            interned = segment(*args)
            assert direct == interned
            assert hash(direct) == hash(interned)
            assert segment(*args) is interned

    def test_defaults_share_one_segment(self):
        assert segment("K") is segment("K", None, 1)
        assert segment("K", None, 2) != segment("K")

    def test_build_and_parse_give_equal_keys(self):
        built = InstanceKey.build(("Cloud", "c1"), ("Tenant", None, 2), "K")
        direct = InstanceKey(
            (InstanceSegment("Cloud", "c1"), InstanceSegment("Tenant", None, 2),
             InstanceSegment("K"))
        )
        assert built == direct
        assert hash(built) == hash(direct)
        assert keys.parse_instance_key(built.render()) == built


class TestRoundTrips:
    KEY = InstanceKey.build(("Cloud", "East 1"), ("Tenant", None, 2), "SecretKey")
    INSTANCE = ConfigInstance(KEY, "s3cr3t", "fleet.xml")

    @pytest.mark.parametrize("value", [KEY, INSTANCE], ids=["key", "instance"])
    def test_pickle(self, value):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(value, protocol))
            assert clone == value
            assert hash(clone) == hash(value)

    @pytest.mark.parametrize("value", [KEY, INSTANCE], ids=["key", "instance"])
    def test_copy_and_deepcopy(self, value):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value

    def test_replace(self):
        moved = dataclasses.replace(self.INSTANCE, value="rotated")
        assert moved.key == self.KEY
        assert moved.value == "rotated"
        assert dataclasses.replace(moved, value="s3cr3t") == self.INSTANCE
        leaf = dataclasses.replace(self.KEY.segments[-1], ordinal=2)
        assert leaf == segment("SecretKey", None, 2)
        rekeyed = dataclasses.replace(self.KEY, segments=self.KEY.scope + (leaf,))
        assert rekeyed.render() == "Cloud::'East 1'.Tenant[2].SecretKey[2]"

    def test_records_stay_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.INSTANCE.value = "x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.KEY.segments[0].name = "x"


class TestInternTable:
    def test_sources_share_leaf_segments(self):
        driver = get_driver("ini")
        first = driver.parse("[s]\nTimeout = 30\n", source="a.ini")
        second = driver.parse("[t]\nTimeout = 45\n", source="b.ini")
        assert first[0].key.segments[-1] is second[0].key.segments[-1]

    def test_cap_bounds_table_and_keeps_fingerprints(self, monkeypatch):
        def fingerprints():
            out = []
            text = generate_type_b(0.002, seed=3).sources[0][1]
            faulty = text.replace("= ready", "= rebooting", 3)
            for corpus in (text, faulty):
                session = ValidationSession()
                session.load_text("keyvalue", corpus, source="b.kv")
                out.append(session.validate(EXPERT_SPECS["type_b"]).fingerprint())
            session = ValidationSession()
            for fmt, text, scope in generate_type_c(0.5, seed=3).sources:
                session.load_text(fmt, text, source=f"{scope}.ini", scope=scope)
            out.append(session.validate(EXPERT_SPECS["type_c"]).fingerprint())
            return out

        before = fingerprints()
        cap = 16
        monkeypatch.setattr(keys, "SEGMENT_TABLE_CAP", cap)
        for index in range(10 * cap):
            segment("Churn", f"q{index}")
            assert len(keys._SEGMENTS) <= cap
        assert fingerprints() == before  # the table clears mid-parse here
        assert len(keys._SEGMENTS) <= cap


class TestMemoryGuard:
    @pytest.mark.parametrize(
        "record",
        [
            segment("K"),
            InstanceKey.build("K"),
            ConfigInstance(InstanceKey.build("K"), "v"),
            Item("v", InstanceKey.build("K")),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_records_have_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")

    def test_retained_bytes_per_instance(self):
        sources = generate_type_c(0.5, seed=3).sources
        driver = get_driver("ini")
        keys._SEGMENTS.clear()  # count the canonical segments too
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            store = ConfigStore()
            for __, text, scope in sources:
                store.add_all(driver.parse(text, source=f"{scope}.ini", scope=scope))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert store.instance_count == 288
        per_instance = retained / store.instance_count
        assert per_instance <= BYTES_PER_INSTANCE_BOUND, f"{per_instance:.0f} B"
