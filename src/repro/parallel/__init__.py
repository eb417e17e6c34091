"""Parallel sharded validation (paper §7's "embarrassingly parallel" note).

CPL specifications are side-effect free, so a compiled program can be
partitioned by compartment/scope into independent shards and evaluated
concurrently — with the guarantee that the merged report is identical to
what serial evaluation produces.  The package also houses the compiled-spec
cache that lets steady-state revalidation skip recompilation entirely.

Public surface:

* :class:`ParallelValidator` — shard, execute, merge deterministically
* :func:`partition_statements` / :class:`Shard` — the compartment/scope
  partitioner
* :class:`SerialExecutor` / :class:`ThreadShardExecutor` /
  :class:`ProcessShardExecutor` / :func:`choose_executor` — pluggable
  executors and the workload-size selection heuristic
* :class:`SpecCache` — compiled-spec memoization keyed by
  (spec text hash, compiler options)
* :func:`run_supervised` / :class:`ShardFailure` — per-shard
  timeout/crash supervision with the retry → serial → mark-failed
  fallback ladder (used via ``ParallelValidator(shard_timeout=…)``)

Most callers use it indirectly through
``ValidationSession(executor="auto")`` or ``ValidationService``;
see ``docs/PERFORMANCE.md``.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".cache": ("SpecCache", "SpecCacheStats"),
    ".engine": ("ParallelValidator", "ShardResult", "WorkerState", "evaluate_shard"),
    ".executors": ("PROCESS_CUTOFF", "SERIAL_CUTOFF", "ProcessShardExecutor",
                   "SerialExecutor", "ThreadShardExecutor", "choose_executor",
                   "resolve_executor"),
    ".shards": ("Shard", "Unit", "is_parallel_safe", "partition_statements", "scope_key"),
    ".supervision": ("ShardFailure", "run_supervised"),
})
