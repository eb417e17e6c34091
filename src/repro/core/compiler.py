"""CPL compiler rewrites (paper §5.2, Figure 4).

"Our compiler rewrites these types of inefficient specifications by
aggregating predicates, aggregating domains or omitting implied
constraints."

Three rewrites, each independently toggleable so the Figure 4 ablation
benchmark can measure their contribution:

(a) **predicate aggregation** — specifications sharing the same domain merge
    into one conjunction, so instance discovery runs once per domain;
(b) **domain aggregation** — specifications sharing the same predicate merge
    into one :class:`~repro.cpl.ast.UnionDomain`, so one predicate object
    serves many domains.  *Deviation for correctness*: specifications whose
    predicate contains an aggregate primitive (``unique``/``consistent``/
    ``order``) are never domain-aggregated, because uniqueness over a merged
    domain is a strictly stronger constraint than per-domain uniqueness
    (Figure 4b glosses over this);
(c) **implied-constraint elision** — conjuncts implied by their siblings are
    dropped (``string & nonempty & {'compute','storage'}`` →
    ``{'compute','storage'}``), using a small implication table
    (``int ⇒ float ⇒ nonempty ⇒ string``, every type predicate ⇒ nonempty,
    a set of nonempty literals ⇒ nonempty, everything ⇒ string).

All rewrites preserve the reported violations for aggregate-free
specifications (a property test asserts this); only the spec *count*
bookkeeping changes, since merged specs evaluate as one.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from ..cpl import ast
from ..predicates import is_registered
from ..predicates.base import get_predicate

__all__ = ["optimize_statements", "CompilerOptions", "simplify_predicate"]


class CompilerOptions:
    """Rewrite toggles for the Figure 4 ablation."""

    def __init__(
        self,
        aggregate_predicates: bool = True,
        aggregate_domains: bool = True,
        omit_implied: bool = True,
    ):
        self.aggregate_predicates = aggregate_predicates
        self.aggregate_domains = aggregate_domains
        self.omit_implied = omit_implied

    def fingerprint(self) -> tuple:
        """Hashable identity of the rewrite configuration — part of the
        compiled-spec cache key (:class:`repro.parallel.SpecCache`)."""
        return (
            self.aggregate_predicates,
            self.aggregate_domains,
            self.omit_implied,
        )


#: conjuncts implied by another conjunct's presence: implied -> implier names
_TYPE_PREDICATES = {
    "int", "float", "bool", "ip", "ipv6", "cidr", "mac", "port",
    "url", "email", "guid", "path", "iprange",
}
_IMPLIES_NONEMPTY = _TYPE_PREDICATES | {
    f"list_{name}" for name in _TYPE_PREDICATES
}


def optimize_statements(
    statements: Sequence[ast.Statement], options: Optional[CompilerOptions] = None
) -> list[ast.Statement]:
    """Apply the Figure 4 rewrites to a statement list (recursing into blocks)."""
    options = options or CompilerOptions()
    out: list[ast.Statement] = []
    for statement in statements:
        if isinstance(statement, (ast.NamespaceBlock, ast.CompartmentBlock)):
            body = tuple(optimize_statements(statement.body, options))
            out.append(statement.replace(body=body))
        elif isinstance(statement, ast.IfStatement):
            out.append(statement.replace(
                then=tuple(optimize_statements(statement.then, options)),
                otherwise=tuple(optimize_statements(statement.otherwise, options)),
            ))
        elif isinstance(statement, ast.SpecStatement) and options.omit_implied:
            out.append(_elide_implied(statement))
        else:
            out.append(statement)
    if options.aggregate_predicates:
        out = _aggregate_predicates(out, simplify=options.omit_implied)
    if options.aggregate_domains:
        out = _aggregate_domains(out)
    return out


# ---------------------------------------------------------------------------
# (a) aggregate predicates with the same domain
# ---------------------------------------------------------------------------


def _is_simple_spec(statement: ast.Statement) -> bool:
    """A spec with no pipeline steps other than its final predicate.

    Specs carrying a custom error message (§4.4) are never merged: merging
    would attach one spec's message to another spec's violations.
    """
    return (
        isinstance(statement, ast.SpecStatement)
        and len(statement.steps) == 1
        and isinstance(statement.steps[0], ast.PredicateStep)
        and not statement.custom_message
    )


def _final_predicate(spec: ast.SpecStatement) -> ast.PredExpr:
    step = spec.steps[-1]
    assert isinstance(step, ast.PredicateStep)
    return step.predicate


def _aggregate_predicates(
    statements: list[ast.Statement], simplify: bool = False
) -> list[ast.Statement]:
    by_domain: dict[ast.DomainExpr, list[ast.SpecStatement]] = defaultdict(list)
    for statement in statements:
        if _is_simple_spec(statement):
            by_domain[statement.domain].append(statement)
    merged_into: dict[int, ast.SpecStatement] = {}
    drop: set[int] = set()
    for domain, group in by_domain.items():
        if len(group) < 2:
            continue
        predicate = _final_predicate(group[0])
        for extra in group[1:]:
            predicate = ast.And(predicate, _final_predicate(extra))
            drop.add(id(extra))
        if simplify:
            # re-run (c): merging may expose newly implied conjuncts
            predicate = simplify_predicate(predicate)
        merged = group[0].replace(
            steps=(ast.PredicateStep(predicate),),
            text=" & ".join(s.text or "<spec>" for s in group),
        )
        merged_into[id(group[0])] = merged
    out = []
    for statement in statements:
        if id(statement) in drop:
            continue
        out.append(merged_into.get(id(statement), statement))
    return out


# ---------------------------------------------------------------------------
# (b) aggregate domains with the same predicate
# ---------------------------------------------------------------------------


def _has_aggregate(predicate: ast.PredExpr) -> bool:
    if isinstance(predicate, ast.PrimitiveCall):
        return is_registered(predicate.name) and get_predicate(predicate.name).aggregate
    if isinstance(predicate, (ast.And, ast.Or)):
        return _has_aggregate(predicate.left) or _has_aggregate(predicate.right)
    if isinstance(predicate, ast.Not):
        return _has_aggregate(predicate.operand)
    if isinstance(predicate, ast.Quantified):
        return _has_aggregate(predicate.operand)
    if isinstance(predicate, ast.IfPred):
        return (
            _has_aggregate(predicate.condition)
            or _has_aggregate(predicate.then)
            or (predicate.otherwise is not None and _has_aggregate(predicate.otherwise))
        )
    if isinstance(predicate, ast.MacroRef):
        return True  # conservatively assume macros may contain aggregates
    return False


def _aggregate_domains(statements: list[ast.Statement]) -> list[ast.Statement]:
    by_predicate: dict[ast.PredExpr, list[ast.SpecStatement]] = defaultdict(list)
    for statement in statements:
        if _is_simple_spec(statement) and not _has_aggregate(
            _final_predicate(statement)
        ):
            by_predicate[_final_predicate(statement)].append(statement)
    merged_into: dict[int, ast.SpecStatement] = {}
    drop: set[int] = set()
    for predicate, group in by_predicate.items():
        if len(group) < 2:
            continue
        domains = tuple(spec.domain for spec in group)
        merged = group[0].replace(
            domain=ast.UnionDomain(domains),
            text=" , ".join(s.text or "<spec>" for s in group),
        )
        merged_into[id(group[0])] = merged
        for extra in group[1:]:
            drop.add(id(extra))
    out = []
    for statement in statements:
        if id(statement) in drop:
            continue
        out.append(merged_into.get(id(statement), statement))
    return out


# ---------------------------------------------------------------------------
# (c) omit implied constraints
# ---------------------------------------------------------------------------


def _flatten_and(predicate: ast.PredExpr) -> Optional[list[ast.PredExpr]]:
    if isinstance(predicate, ast.And):
        left = _flatten_and(predicate.left)
        right = _flatten_and(predicate.right)
        if left is None or right is None:
            return None
        return left + right
    return [predicate]


def _implied_by(candidate: ast.PredExpr, others: list[ast.PredExpr]) -> bool:
    if not isinstance(candidate, ast.PrimitiveCall) or candidate.args:
        return False
    name = candidate.name
    if name == "string":
        return len(others) > 0
    if name == "nonempty":
        for other in others:
            if isinstance(other, ast.PrimitiveCall) and other.name in _IMPLIES_NONEMPTY:
                return True
            if isinstance(other, ast.SetPred) and all(
                isinstance(m, ast.Literal) and str(m.value).strip()
                for m in other.members
            ):
                return True
        return False
    if name == "float":
        return any(
            isinstance(other, ast.PrimitiveCall) and other.name == "int"
            for other in others
        )
    return False


def simplify_predicate(predicate: ast.PredExpr) -> ast.PredExpr:
    """Drop duplicated and implied conjuncts from an ``&`` chain."""
    conjuncts = _flatten_and(predicate)
    if conjuncts is None or len(conjuncts) < 2:
        return predicate
    deduped: list[ast.PredExpr] = []
    for conjunct in conjuncts:
        if conjunct not in deduped:
            deduped.append(conjunct)
    kept: list[ast.PredExpr] = []
    for index, conjunct in enumerate(deduped):
        others = deduped[:index] + deduped[index + 1:]
        # only consider siblings that themselves survive (stable: compare
        # against all others; implications here are never mutual except
        # duplicates, already removed)
        if not _implied_by(conjunct, others):
            kept.append(conjunct)
    if not kept:
        kept = [deduped[-1]]
    result = kept[0]
    for conjunct in kept[1:]:
        result = ast.And(result, conjunct)
    return result


def _elide_implied(spec: ast.SpecStatement) -> ast.SpecStatement:
    final = spec.steps[-1]
    if not isinstance(final, ast.PredicateStep):
        return spec
    simplified = simplify_predicate(final.predicate)
    if simplified is final.predicate:
        return spec
    return spec.replace(steps=spec.steps[:-1] + (ast.PredicateStep(simplified),))
