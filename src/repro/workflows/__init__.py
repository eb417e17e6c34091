"""Composable validation workflows.

A workflow chains named steps — ``parse``, ``validate``, ``shadow``,
``cross_check``, ``report``, ``webhook`` or custom registered kinds —
into an ordered DAG with per-step **gates** (run always / on pass /
on violation, optionally severity-thresholded) and per-step timeouts.
The engine merges every step's findings into one deterministic
:class:`WorkflowReport` whose pure-validation fingerprint matches an
equivalent single-pass scan byte for byte.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".crosscheck": ("CrossStoreChecker", "extract_port"),
    ".engine": ("WorkflowEngine",),
    ".loader": ("load_workflow", "parse_workflow"),
    ".model": ("Gate", "StepResult", "StepStatus", "Workflow", "WorkflowError",
               "WorkflowReport", "WorkflowStep"),
    ".rulepack": ("Rule", "RulePack", "load_rulepack", "parse_rulepack"),
    ".steps": ("StepOutput", "WorkflowContext", "get_step_kind", "register_step_kind",
               "step_kinds"),
})
