"""Cross-feature interactions: optimizer×messages, editor×XML,
incremental×unions, service×both-changed, trie configs, printer blocks."""

from __future__ import annotations

import os

import pytest

from repro import (
    ConfigStore,
    SourceSpec,
    ValidationService,
    ValidationSession,
    check_change,
    diff_stores,
)
from repro.console import EditorValidator
from repro.cpl import parse, print_program
from repro.repository import NaiveIndex, TrieIndex
from repro.repository.keys import parse_instance_key
from repro.repository.model import ConfigInstance


def inst(key, value):
    return ConfigInstance(parse_instance_key(key), value, "t")


class TestOptimizerInteractions:
    def test_union_from_parser_and_aggregation_coexist(self, make_store):
        session = ValidationSession(store=make_store([
            ("s.k1", "10.0.0.1"), ("s.k2", "10.0.0.2"), ("s.k3", "x"),
        ]))
        report = session.validate("$s.k1, $s.k2 -> ip\n$s.k3 -> ip")
        assert len(report.violations) == 1
        assert report.violations[0].key == "s.k3"

    def test_custom_message_spec_next_to_mergeable_ones(self, make_store):
        session = ValidationSession(store=make_store([("A.K", "x")]))
        report = session.validate(
            "$K -> int !! 'custom'\n$K -> nonempty\n$K -> string"
        )
        messages = {v.message for v in report.violations}
        assert "custom" in messages

    def test_optimizer_with_namespace_blocks(self, make_store):
        session = ValidationSession(store=make_store([("r.s.k", "5")]))
        report = session.validate(
            "namespace r.s {\n$k -> int\n$k -> nonempty\n$k -> [1, 9]\n}"
        )
        assert report.passed

    def test_stop_on_first_respects_priorities_across_blocks(self, make_store):
        from repro import ValidationPolicy

        policy = ValidationPolicy(
            stop_on_first_violation=True, priorities={"Critical": 5}
        )
        session = ValidationSession(
            store=make_store([("A.Minor", "x"), ("A.Critical", "y")]),
            policy=policy, optimize=False,
        )
        report = session.validate("$Minor -> int\n$Critical -> int")
        assert report.violations[0].key == "A.Critical"


class TestEditorXML:
    SPEC = "compartment Cluster {\n$StartIP <= $EndIP\n}"

    def test_xml_buffer_diagnostics(self):
        editor = EditorValidator(self.SPEC, "xml")
        bad = (
            '<Cluster Name="C1">'
            '<Setting Key="StartIP" Value="10.0.0.50"/>'
            '<Setting Key="EndIP" Value="10.0.0.9"/>'
            "</Cluster>"
        )
        diagnostics = editor.update(bad)
        assert len(diagnostics) == 1
        assert "StartIP" in diagnostics[0].key

    def test_xml_buffer_fixed(self):
        editor = EditorValidator(self.SPEC, "xml")
        good = (
            '<Cluster Name="C1">'
            '<Setting Key="StartIP" Value="10.0.0.1"/>'
            '<Setting Key="EndIP" Value="10.0.0.9"/>'
            "</Cluster>"
        )
        assert editor.update(good) == []


def store_of(instances):
    store = ConfigStore()
    store.add_all(instances)
    return store


class TestIncrementalUnions:
    def test_union_domain_spec_selected_by_either_member(self):
        old = store_of([inst("s.k1", "1"), inst("s.k2", "2")])
        new = store_of([inst("s.k1", "1"), inst("s.k2", "x")])
        report = check_change(
            ValidationSession(store=new), "$s.k1, $s.k2 -> int", old
        )
        assert report.delta_info["selected"] == 1
        assert len(report.violations) == 1

    def test_inline_compartment_spec_selected(self):
        old = store_of([
            inst("DC::D1.Pool::P1.F", "80"), inst("DC::D1.Pool::P2.F", "80"),
        ])
        new = store_of([
            inst("DC::D1.Pool::P1.F", "80"), inst("DC::D1.Pool::P2.F", "70"),
        ])
        report = check_change(
            ValidationSession(store=new), "#[DC] $Pool.F# -> consistent", old
        )
        assert report.delta_info["selected"] == 1
        assert len(report.violations) == 1


class TestServiceBothChanged:
    def test_spec_and_data_change_in_one_scan(self, tmp_path):
        spec = tmp_path / "s.cpl"
        config = tmp_path / "c.ini"
        spec.write_text("$s.K -> int\n")
        config.write_text("[s]\nK = 5\n")
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        assert service.scan().passed

        spec.write_text("$s.K -> int & [1, 3]\n")
        config.write_text("[s]\nK = 9\n")
        for path in (spec, config):
            stat = os.stat(path)
            os.utime(path, ns=(stat.st_atime_ns + 10**6, stat.st_mtime_ns + 10**6))
        result = service.scan()
        assert result is not None
        assert not result.passed
        assert len(result.changed_paths) == 2


class TestIndexConfigurations:
    def test_store_with_naive_index(self):
        store = ConfigStore(index=NaiveIndex())
        store.add(inst("A::1.K", "v"))
        store.add(inst("A::2.K", "w"))
        assert len(store.query("K")) == 2
        session = ValidationSession(store=store)
        assert session.validate("$K -> nonempty").passed

    def test_trie_cache_disabled(self):
        trie = TrieIndex(cache_size=0)
        store = ConfigStore(index=trie)
        store.add(inst("A.K", "v"))
        assert len(store.query("K")) == 1
        assert len(store.query("K")) == 1
        assert trie.cache_hits == 0


class TestPrinterBlocks:
    def test_if_statement_with_else_prints_and_reparses(self):
        source = (
            "if ($C -> ~match('UF')) {\n"
            "  $F::$C.T -> nonempty\n"
            "} else {\n"
            "  $F::$C.T -> ~nonempty\n"
            "}"
        )
        printed = print_program(parse(source))
        assert "else" in printed
        reparsed = print_program(parse(printed))
        assert reparsed == printed

    def test_nested_blocks_indented(self):
        source = "compartment DC {\ncompartment Rack {\n$Loc -> unique\n}\n}"
        printed = print_program(parse(source))
        assert "  compartment Rack {" in printed
        assert "    $Loc -> unique" in printed

    def test_stdlib_prints_and_reparses(self):
        from repro.cpl.stdlib import STDLIB_CPL

        printed = print_program(parse(STDLIB_CPL))
        assert print_program(parse(printed)) == printed


class TestRepairIntegration:
    def test_repair_then_commit_workflow(self, make_store):
        from repro.core import apply_repairs, suggest_repairs

        store = make_store([
            ("Cluster::C1.Pool", "comput"),
            ("Cluster::C2.Pool", "storage"),
        ])
        spec = "$Pool -> {'compute', 'storage'}"
        report = ValidationSession(store=store).validate(spec)
        repairs = suggest_repairs(report, store)
        repaired = apply_repairs(store.instances(), repairs)

        repaired_store = store_of(repaired)
        assert ValidationSession(store=repaired_store).validate(spec).passed
        assert len(diff_stores(store, repaired_store).modified) == 1
