"""Parallel sharded validation: partitioning, executors, determinism.

The headline property — required by the engine's contract and by
``docs/PERFORMANCE.md`` — is that serial, thread-pool and process-pool
evaluation of the synthetic Azure Type-A corpus produce *byte-identical*
reports (``ValidationReport.fingerprint()``), including on a faulty branch
where violation ordering actually matters.
"""

from __future__ import annotations

import pytest

from repro import (
    ParallelValidator,
    ValidationPolicy,
    ValidationSession,
    parse,
)
from repro.core.compiler import optimize_statements
from repro.parallel import (
    PROCESS_CUTOFF,
    SERIAL_CUTOFF,
    ProcessShardExecutor,
    SerialExecutor,
    ThreadShardExecutor,
    choose_executor,
    partition_statements,
    resolve_executor,
    scope_key,
    serial_only_reason,
)
from repro.repository.store import ConfigStore
from repro.synthetic import EXPERT_SPECS
from repro.synthetic.azure import generate_type_a
from repro.synthetic.faults import TRUE_ERROR_KINDS, FaultInjector

EXECUTORS = ["serial", "thread", "process"]


@pytest.fixture(scope="module")
def clean_store():
    return generate_type_a(0.08).build_store()


@pytest.fixture(scope="module")
def faulty_store():
    base = generate_type_a(0.08).parse()
    branch = FaultInjector(base, seed=7).make_branch("faulty", TRUE_ERROR_KINDS)
    store = ConfigStore()
    store.add_all(branch.instances)
    return store


def compiled(text):
    return optimize_statements(list(parse(text).statements))


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


class TestPartitioning:
    def test_every_statement_lands_exactly_once(self):
        statements = compiled(EXPERT_SPECS["type_a"])
        lets, shards = partition_statements(statements, max_shards=4)
        indices = [unit.index for shard in shards for unit in shard.units]
        indices += [unit.index for unit in lets]
        assert sorted(indices) == list(range(len(statements)))

    def test_partitioning_is_deterministic(self):
        statements = compiled(EXPERT_SPECS["type_a"])
        first = partition_statements(statements, max_shards=4)
        second = partition_statements(statements, max_shards=4)
        assert first == second

    def test_max_shards_respected(self):
        statements = compiled(EXPERT_SPECS["type_a"])
        __, shards = partition_statements(statements, max_shards=2)
        assert 1 <= len(shards) <= 2

    def test_units_ascending_within_shard(self):
        statements = compiled(EXPERT_SPECS["type_a"])
        __, shards = partition_statements(statements, max_shards=3)
        for shard in shards:
            indices = [unit.index for unit in shard.units]
            assert indices == sorted(indices)

    def test_same_compartment_shares_a_shard(self):
        text = """
        compartment Cluster { $StartIP -> ip }
        compartment Cluster { $EndIP -> ip }
        $Other.Key -> nonempty
        """
        statements = list(parse(text).statements)
        __, shards = partition_statements(statements, max_shards=8)
        homes = {}
        for number, shard in enumerate(shards):
            for unit in shard.units:
                homes[unit.index] = number
        assert homes[0] == homes[1]  # both Cluster compartments together

    def test_scope_keys(self):
        statements = list(parse(
            "compartment Cluster { $StartIP -> ip }\n"
            "namespace fabric { $Timeout -> int }\n"
            "$Node.NodeIP -> ip\n"
        ).statements)
        assert scope_key(statements[0]) == "compartment:Cluster"
        assert scope_key(statements[1]) == "namespace:fabric"
        assert scope_key(statements[2]) == "class:Node"


# ---------------------------------------------------------------------------
# Parallel-safety gate
# ---------------------------------------------------------------------------


class TestParallelSafety:
    def test_plain_program_is_safe(self):
        assert serial_only_reason(compiled(EXPERT_SPECS["type_a"])) is None

    def test_top_level_lets_are_safe(self):
        statements = list(parse("let X := int\n$K -> @X\n").statements)
        assert serial_only_reason(statements) is None

    def test_nested_let_is_unsafe(self):
        statements = list(
            parse("namespace fabric {\n  let X := int\n  $K -> @X\n}\n").statements
        )
        assert serial_only_reason(statements) == "a let is nested inside a block"

    @pytest.mark.parametrize(
        "policy",
        [
            ValidationPolicy(stop_on_first_violation=True),
            ValidationPolicy(priorities={"VipRange": 5}),
            ValidationPolicy(on_violation=lambda violation: None),
        ],
    )
    def test_cross_statement_policies_are_unsafe(self, policy):
        statements = list(parse("$K -> int\n").statements)
        assert serial_only_reason(statements, policy).startswith("the policy ")


# ---------------------------------------------------------------------------
# Executor selection heuristic
# ---------------------------------------------------------------------------


class TestChooseExecutor:
    def test_small_workload_stays_serial(self):
        executor = choose_executor(8, SERIAL_CUTOFF - 1, cpu_count=8)
        assert isinstance(executor, SerialExecutor)

    def test_single_core_stays_serial(self):
        executor = choose_executor(8, PROCESS_CUTOFF * 10, cpu_count=1)
        assert isinstance(executor, SerialExecutor)

    def test_single_shard_stays_serial(self):
        executor = choose_executor(1, PROCESS_CUTOFF * 10, cpu_count=8)
        assert isinstance(executor, SerialExecutor)

    def test_medium_workload_uses_threads(self):
        executor = choose_executor(8, SERIAL_CUTOFF + 1, cpu_count=8)
        assert isinstance(executor, ThreadShardExecutor)

    @pytest.mark.skipif(
        not ProcessShardExecutor.available(), reason="no fork start method"
    )
    def test_large_workload_uses_processes(self):
        executor = choose_executor(8, PROCESS_CUTOFF, cpu_count=8)
        assert isinstance(executor, ProcessShardExecutor)

    def test_resolve_by_name(self):
        assert isinstance(resolve_executor("serial", 4, 10**9), SerialExecutor)
        assert isinstance(resolve_executor("thread", 4, 10**9), ThreadShardExecutor)
        with pytest.raises(ValueError):
            resolve_executor("warp-drive", 4, 10**9)


# ---------------------------------------------------------------------------
# Determinism: the headline guarantee
# ---------------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_clean_corpus_identical_to_serial(self, clean_store, executor):
        baseline = ValidationSession(store=clean_store).validate(
            EXPERT_SPECS["type_a"]
        )
        session = ValidationSession(store=clean_store, executor=executor)
        report = session.validate(EXPERT_SPECS["type_a"])
        assert report.fingerprint() == baseline.fingerprint()
        assert report.executor == executor
        assert report.shards_run >= 1

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_faulty_corpus_identical_to_serial(self, faulty_store, executor):
        """Violation *ordering* must survive sharding, not just the set."""
        baseline = ValidationSession(store=faulty_store).validate(
            EXPERT_SPECS["type_a"]
        )
        assert baseline.violations, "fault injection should produce violations"
        session = ValidationSession(store=faulty_store, executor=executor)
        report = session.validate(EXPERT_SPECS["type_a"])
        assert report.fingerprint() == baseline.fingerprint()
        assert [v.key for v in report.violations] == [
            v.key for v in baseline.violations
        ]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_lets_and_gets_survive_sharding(self, clean_store, executor):
        text = (
            "let SaneReplicas := int & {3, 5}\n"
            "$Cluster.ReplicaCountForCreateFCC -> @SaneReplicas\n"
            "get $Cluster.MachinePool\n"
        )
        baseline = ValidationSession(store=clean_store).validate(text)
        report = ValidationSession(store=clean_store, executor=executor).validate(text)
        assert report.fingerprint() == baseline.fingerprint()
        assert report.notes == baseline.notes

    def test_parallel_validator_direct_api(self, clean_store):
        statements = compiled(EXPERT_SPECS["type_a"])
        serial = ParallelValidator(clean_store, executor="serial").validate_statements(
            statements
        )
        threaded = ParallelValidator(
            clean_store, executor="thread", max_workers=3
        ).validate_statements(statements)
        assert serial.fingerprint() == threaded.fingerprint()
        assert threaded.shards_run == serial.shards_run >= 1
        assert len(threaded.shard_timings) == threaded.shards_run

    def test_macro_persists_in_session_after_parallel_run(self, clean_store):
        session = ValidationSession(store=clean_store, executor="thread")
        session.validate("let X := int\n$Cluster.ReplicaCountForCreateFCC -> @X\n")
        # second program reuses the macro defined by the first
        report = session.validate("$Blade.Location -> @X\n")
        assert report.specs_evaluated > 0


# ---------------------------------------------------------------------------
# Serial fallback for cross-statement behavior
# ---------------------------------------------------------------------------


class TestSerialFallback:
    def test_stop_on_first_violation_falls_back(self, faulty_store):
        policy = ValidationPolicy(stop_on_first_violation=True)
        baseline = ValidationSession(store=faulty_store, policy=policy).validate(
            EXPERT_SPECS["type_a"]
        )
        report = ValidationSession(
            store=faulty_store,
            policy=ValidationPolicy(stop_on_first_violation=True),
            executor="thread",
        ).validate(EXPERT_SPECS["type_a"])
        assert report.executor == "serial-fallback"
        assert report.fingerprint() == baseline.fingerprint()
        assert report.stopped_early

    def test_nested_let_falls_back(self, clean_store):
        text = "namespace fabric {\n  let X := int\n}\n"
        report = ValidationSession(store=clean_store, executor="thread").validate(text)
        assert report.executor == "serial-fallback"

    def test_on_violation_callback_sees_every_violation(self, faulty_store):
        seen = []
        policy = ValidationPolicy(on_violation=seen.append)
        report = ValidationSession(
            store=faulty_store, policy=policy, executor="process"
        ).validate(EXPERT_SPECS["type_a"])
        assert report.executor == "serial-fallback"
        assert len(seen) == len(report.violations) > 0


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


class TestReportPlumbing:
    def test_fingerprint_ignores_timing_and_strategy(self, clean_store):
        report = ValidationSession(store=clean_store, executor="thread").validate(
            "$Blade.Location -> int\n"
        )
        fingerprint = report.fingerprint()
        report.elapsed_seconds += 100.0
        report.executor = "something-else"
        report.shard_timings.append(("x", 1.0))
        assert report.fingerprint() == fingerprint

    def test_to_dict_carries_perf_block(self, clean_store):
        report = ValidationSession(store=clean_store, executor="serial").validate(
            "$Blade.Location -> int\n"
        )
        perf = report.to_dict()["perf"]
        assert perf["executor"] == "serial"
        assert perf["shards_run"] == report.shards_run

    def test_merge_sums_perf_counters(self, clean_store):
        session = ValidationSession(store=clean_store, executor="serial")
        first = session.validate("$Blade.Location -> int\n")
        second = session.validate("$Rack.Blade.BladeID -> nonempty\n")
        shards = first.shards_run + second.shards_run
        first.merge(second)
        assert first.shards_run == shards
