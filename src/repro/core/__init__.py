"""ConfValley core: evaluation engine, sessions, policies and reports."""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".compiler": ("CompilerOptions", "optimize_statements", "simplify_predicate"),
    ".coverage": ("CoverageReport", "analyze_coverage"),
    ".evaluator": ("Context", "Evaluator", "Item"),
    ".incremental": ("DeltaPlan", "DependencyIndex", "check_change", "plan_delta"),
    ".policy": ("ValidationPolicy",),
    ".repair": ("Repair", "apply_repairs", "suggest_repairs"),
    ".report": ("Severity", "ValidationReport", "Violation"),
    ".session": ("ValidationSession",),
})
