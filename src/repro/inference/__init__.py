"""Automatic specification inference (paper §4.5)."""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".constraints": ("KIND_NAMES", "ConsistencyConstraint", "Constraint",
                     "EnumConstraint", "EqualityConstraint", "NonEmptyConstraint",
                     "RangeConstraint", "TypeConstraint", "UniquenessConstraint"),
    ".engine": ("InferenceEngine", "InferenceOptions", "InferenceResult"),
    ".typelattice": ("infer_value_type", "join_all", "lub"),
    ".whitebox": ("WhiteBoxExtractor", "combine", "extract_constraints"),
})
