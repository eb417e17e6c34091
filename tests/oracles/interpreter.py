"""Reference evaluator: the tree-walking interpreter the engine replaced.

``repro.core.evaluator`` lowers each statement into closures once; this
module keeps the interpreter it replaced, which re-walks the AST for every
item, as a test oracle.  ``tests/test_lowering.py`` runs both over random
programs and stores and requires byte-identical reports.  Only the imports
and the AST walk (the AST is no longer made of dataclasses) changed.

Evaluates parsed CPL programs against a :class:`~repro.repository.ConfigStore`:

* resolves configuration notations through namespace and compartment scopes
  with variable substitution (§4.2.2);
* iterates predicates over all instances of a domain with ∀ / ∃ / ∃!
  quantification (§4.2.1);
* treats every compartment instance as an isolated evaluation scope, skipping
  instances where a referenced domain is absent (§4.2.2 *Compartment*);
* runs pipelines of (predicated) transformations feeding ``$_`` (§4.2.3);
* evaluates aggregate predicates (``consistent``, ``unique``, ``order``)
  over whole domains while per-value predicates iterate;
* produces a :class:`~repro.core.report.ValidationReport` with
  auto-generated error messages (§4.4) under a
  :class:`~repro.core.policy.ValidationPolicy` (§4.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Union

from repro.cpl import ast
from repro.errors import CPLSemanticError, EvaluationError, UnknownMacroError
from repro.observability.analytics import add_seconds
from repro.predicates import compare, get_predicate
from repro.predicates.relational import coerce_scalar
from repro.repository.keys import InstanceKey, KeyPattern, parse_pattern
from repro.repository.model import ConfigInstance
from repro.repository.store import ConfigStore
from repro.runtime import RuntimeProvider, StaticRuntime
from repro.runtime import clock as _clock
from repro.transforms import get_transform
from repro.core.policy import ValidationPolicy
from repro.core.report import Severity, ValidationReport, Violation

__all__ = ["Evaluator", "Item", "Context"]


@dataclass(frozen=True, slots=True)
class Item:
    """A value flowing through validation, with provenance for reports."""

    value: Union[str, list]
    key: Optional[InstanceKey] = None
    source: str = ""

    @property
    def key_text(self) -> str:
        return self.key.render() if self.key is not None else ""

    def with_value(self, value) -> "Item":
        return Item(value, self.key, self.source)


@dataclass(frozen=True)
class Context:
    """Evaluation context: bindings and active scopes."""

    env: dict = field(default_factory=dict)
    namespaces: tuple[str, ...] = ()
    compartment: Optional[InstanceKey] = None

    def bind(self, **bindings) -> "Context":
        merged = dict(self.env)
        merged.update(bindings)
        return replace(self, env=merged)


class _Skip(Exception):
    """Raised when a compartment instance lacks a referenced domain."""


class Evaluator:
    """Evaluates CPL statements against one configuration store."""

    def __init__(
        self,
        store: ConfigStore,
        runtime: Optional[RuntimeProvider] = None,
        policy: Optional[ValidationPolicy] = None,
        profile: bool = False,
        macros: Optional[dict] = None,
        guard=None,
        analytics: bool = False,
    ):
        self.store = store
        self.runtime = runtime if runtime is not None else StaticRuntime()
        self.policy = policy if policy is not None else ValidationPolicy()
        self.profile = profile
        #: per-statement attribution (eval/instance/violation counts +
        #: cumulative latency) into ``report.spec_profile`` — the substrate
        #: of the hot-spec table and drift detection
        #: (repro.observability.analytics); never changes fingerprint()
        self.analytics = analytics
        #: optional statement guard (repro.resilience.SpecGuard, duck-typed):
        #: when present, top-level statements execute under fault isolation —
        #: quarantined statements are skipped with a reason, and a statement
        #: that raises an internal error is recorded in the report's health
        #: block instead of aborting the run
        self.guard = guard
        # seedable so shard evaluators inherit the session's macro registry
        self.macros: dict[str, ast.PredExpr] = dict(macros) if macros else {}
        self._scope_cache: dict[tuple, list[InstanceKey]] = {}
        self._scope_cache_size = -1

    # ==================================================================
    # Top level
    # ==================================================================

    def run(
        self,
        statements: Sequence[ast.Statement],
        report: Optional[ValidationReport] = None,
    ) -> ValidationReport:
        if report is None:
            report = ValidationReport()
        if self.guard is None:
            self.execute_block(statements, Context(), report)
            return report
        # Guarded top-level execution (repro.resilience): same ordering and
        # stop-on-first semantics as execute_block, but each statement is a
        # fault-isolation boundary.
        ordered = self.policy.order_statements(list(statements))
        ctx = Context()
        for statement in ordered:
            if self.policy.stop_on_first_violation and report.violations:
                report.stopped_early = True
                return report
            self.execute_guarded(statement, ctx, report)
        return report

    def execute_guarded(
        self, statement: ast.Statement, ctx: Context, report: ValidationReport
    ) -> None:
        """Execute one top-level statement under the statement guard.

        A quarantined statement is skipped (recorded as SKIPPED with its
        reason in the health block); an internal error is captured as a
        health-block spec error so the remaining statements still run.
        """
        reason = self.guard.skip_reason(statement)
        if reason is not None:
            report.specs_skipped += 1
            report.health.quarantined_specs.append(
                self.guard.skip_record(statement, reason)
            )
            return
        try:
            self.execute_statement(statement, ctx, report)
        except Exception as exc:
            report.health.spec_errors.append(
                self.guard.error_record(statement, exc)
            )

    def execute_block(
        self,
        statements: Sequence[ast.Statement],
        ctx: Context,
        report: ValidationReport,
    ) -> None:
        ordered = self.policy.order_statements(list(statements))
        for statement in ordered:
            if self.policy.stop_on_first_violation and report.violations:
                report.stopped_early = True
                return
            self.execute_statement(statement, ctx, report)

    def execute_statement(
        self, statement: ast.Statement, ctx: Context, report: ValidationReport
    ) -> None:
        if isinstance(statement, ast.LetCmd):
            self.macros[statement.name] = statement.predicate
            return
        if isinstance(statement, (ast.LoadCmd, ast.IncludeCmd)):
            raise CPLSemanticError(
                "load/include must be resolved by the session before evaluation"
            )
        if isinstance(statement, ast.GetCmd):
            # surface resolved instances in the report (console shows them)
            try:
                items = self.resolve_domain(statement.domain, ctx)
            except _Skip:
                items = []
            for item in items:
                report.notes.append(f"{item.key_text or '<value>'} = {item.value!r}")
            return
        if isinstance(statement, ast.NamespaceBlock):
            inner = replace(ctx, namespaces=statement.names + ctx.namespaces)
            self.execute_block(statement.body, inner, report)
            return
        if isinstance(statement, ast.CompartmentBlock):
            self._execute_compartment(statement, ctx, report)
            return
        if isinstance(statement, ast.IfStatement):
            self._execute_if(statement, ctx, report)
            return
        if isinstance(statement, ast.SpecStatement):
            self._execute_spec(statement, ctx, report)
            return
        raise CPLSemanticError(f"cannot execute {type(statement).__name__}")

    # ------------------------------------------------------------------

    def _execute_compartment(
        self, block: ast.CompartmentBlock, ctx: Context, report: ValidationReport
    ) -> None:
        instances = self.scope_instances(block.name, ctx)
        for scope_key in instances:
            inner = replace(ctx, compartment=scope_key)
            self.execute_block(block.body, inner, report)

    def _execute_if(
        self, statement: ast.IfStatement, ctx: Context, report: ValidationReport
    ) -> None:
        free = self._free_variables(statement, ctx)
        for bound in self._bindings(free, ctx):
            if self._condition_holds(statement.condition, bound):
                self.execute_block(statement.then, bound, report)
            elif statement.otherwise:
                self.execute_block(statement.otherwise, bound, report)

    def _execute_spec(
        self, spec: ast.SpecStatement, ctx: Context, report: ValidationReport
    ) -> None:
        measuring = self.profile or self.analytics
        started = _clock.now() if measuring else 0.0
        if self.analytics:
            evals_before = report.specs_evaluated
            instances_before = report.instances_checked
            violations_before = len(report.violations)
        free = self._free_variables(spec, ctx)
        for bound in self._bindings(free, ctx):
            self._evaluate_spec(spec, bound, report)
        if not measuring:
            return
        elapsed = _clock.now() - started
        key = (spec.line, spec.text or "<spec>")
        if self.profile:
            report.spec_timings[key] = (
                report.spec_timings.get(key, 0.0) + elapsed
            )
        if self.analytics:
            row = report.spec_profile.get(key)
            if row is None:
                row = {"evals": 0, "instances": 0, "violations": 0, "seconds": 0.0}
                report.spec_profile[key] = row
            row["evals"] += report.specs_evaluated - evals_before
            row["instances"] += report.instances_checked - instances_before
            row["violations"] += len(report.violations) - violations_before
            row["seconds"] = add_seconds(row["seconds"], elapsed)

    # ==================================================================
    # Variable binding (substitutable variables, §4.2.2)
    # ==================================================================

    def _free_variables(self, node, ctx: Context) -> list[str]:
        names: set[str] = set()
        for notation in _collect_notations(node):
            try:
                pattern = parse_pattern(notation)
            except Exception:
                continue
            names |= pattern.variables
        names -= set(ctx.env)
        names.discard("_")
        return sorted(names)

    def _bindings(self, variables: list[str], ctx: Context) -> Iterable[Context]:
        """Expand free variables over the distinct values of their domains."""
        if not variables:
            yield ctx
            return
        pools: list[list[str]] = []
        for name in variables:
            values = sorted(
                {i.value for i in self._query(parse_pattern(name), ctx)}
            )
            if not values:
                return  # unbound variable domain: statement is vacuous
            pools.append(values)
        for combo in itertools.product(*pools):
            yield ctx.bind(**dict(zip(variables, combo)))

    # ==================================================================
    # Conditions
    # ==================================================================

    def _condition_holds(self, condition: ast.ConditionSpec, ctx: Context) -> bool:
        probe = ValidationReport()
        try:
            self._evaluate_spec(condition.spec, ctx, probe, counting=False)
        except _Skip:
            return False
        return probe.passed and not probe.specs_skipped

    # ==================================================================
    # Specification evaluation
    # ==================================================================

    def _evaluate_spec(
        self,
        spec: ast.SpecStatement,
        ctx: Context,
        report: ValidationReport,
        counting: bool = True,
    ) -> None:
        if counting:
            report.specs_evaluated += 1
        domain = spec.domain
        if isinstance(domain, ast.CompartmentDomain):
            # inline compartment: evaluate per compartment instance
            inner_spec = spec.replace(domain=domain.inner)
            for scope_key in self.scope_instances(domain.compartment, ctx):
                inner_ctx = replace(ctx, compartment=scope_key)
                before = len(report.violations)
                try:
                    self._run_pipeline(inner_spec, inner_ctx, report)
                except _Skip:
                    report.specs_skipped += 1
                if counting and len(report.violations) > before:
                    report.specs_failed += 1
            return
        before = len(report.violations)
        try:
            self._run_pipeline(spec, ctx, report)
        except _Skip:
            report.specs_skipped += 1
        if counting and len(report.violations) > before:
            report.specs_failed += 1

    def _run_pipeline(
        self, spec: ast.SpecStatement, ctx: Context, report: ValidationReport
    ) -> None:
        items = self.resolve_domain(spec.domain, ctx)
        for step in spec.steps[:-1]:
            items = self.apply_step(step, items, ctx)
        final = spec.steps[-1]
        assert isinstance(final, ast.PredicateStep)
        violations = self.check_items(final.predicate, items, ctx, spec)
        report.instances_checked += len(items)
        for violation in violations:
            if self.policy.is_suppressed(violation):
                report.suppressed += 1
                continue
            report.add(violation)
            if self.policy.on_violation is not None:
                self.policy.on_violation(violation)

    # ==================================================================
    # Domain resolution
    # ==================================================================

    def resolve_domain(self, domain: ast.DomainExpr, ctx: Context) -> list[Item]:
        if isinstance(domain, ast.DomainRef):
            return self.resolve_notation(domain.notation, ctx)
        if isinstance(domain, ast.TransformDomain):
            inner = self.resolve_domain(domain.inner, ctx)
            step = ast.TransformStep(domain.name, domain.args)
            return self.apply_step(step, inner, ctx)
        if isinstance(domain, ast.BinOpDomain):
            left = self.resolve_domain(domain.left, ctx)
            right = self.resolve_domain(domain.right, ctx)
            out = []
            for a, b in itertools.product(left, right):
                out.append(a.with_value(_arith(domain.op, a.value, b.value)))
            return out
        if isinstance(domain, ast.CompartmentDomain):
            out = []
            for scope_key in self.scope_instances(domain.compartment, ctx):
                inner_ctx = replace(ctx, compartment=scope_key)
                try:
                    out.extend(self.resolve_domain(domain.inner, inner_ctx))
                except _Skip:
                    continue
            return out
        if isinstance(domain, ast.UnionDomain):
            out = []
            for member in domain.members:
                out.extend(self.resolve_domain(member, ctx))
            return out
        raise EvaluationError(f"cannot resolve domain {type(domain).__name__}")

    def resolve_notation(self, notation: str, ctx: Context) -> list[Item]:
        """Resolve one configuration notation to its instances.

        Resolution order (paper §4.2.2): compartment-instance prefix, then
        each active namespace, then the bare notation.  Inside a compartment
        an absent domain raises :class:`_Skip` so the enclosing compartment
        instance is skipped.
        """
        # a bound variable used as a bare notation IS its bound value
        # (e.g. `$_ == $CloudName` inside a per-$CloudName expansion)
        if "." not in notation and notation in ctx.env:
            return [Item(str(ctx.env[notation]))]
        pattern = parse_pattern(notation).substitute(ctx.env)
        if pattern.variables:
            missing = ", ".join(sorted(pattern.variables))
            raise EvaluationError(
                f"unbound variable(s) ${missing} in notation {notation!r}"
            )
        # runtime pseudo-domain: $env.os etc. (§4.3)
        if pattern.segments[0].name == "env" and len(pattern.segments) == 2:
            env = self.runtime.environment()
            name = pattern.segments[1].name
            if name not in env:
                raise EvaluationError(f"unknown runtime fact $env.{name}")
            return [Item(env[name])]
        if ctx.compartment is not None:
            # compartment prefix composes with active namespaces:
            # Cluster::C1 + net + StartIP
            candidates = [pattern]
            candidates += [
                pattern.prefixed_with(parse_pattern(namespace))
                for namespace in ctx.namespaces
            ]
            for candidate in candidates:
                scoped = candidate.prefixed_with_instance(ctx.compartment)
                instances = self._query(scoped, ctx)
                if instances:
                    return instances
            # Distinguish cross-references (domain lives outside the
            # compartment class entirely) from per-compartment absence.
            bare = self._resolve_with_namespaces(pattern, ctx)
            compartment_names = {s.name for s in ctx.compartment.segments}
            outside = [
                item
                for item in bare
                if item.key is None
                or not compartment_names & {s.name for s in item.key.segments}
            ]
            if outside:
                return outside
            raise _Skip()
        return self._resolve_with_namespaces(pattern, ctx)

    def _resolve_with_namespaces(self, pattern: KeyPattern, ctx: Context) -> list[Item]:
        for namespace in ctx.namespaces:
            prefixed = pattern.prefixed_with(parse_pattern(namespace))
            instances = self._query(prefixed, ctx)
            if instances:
                return instances
        return self._query(pattern, ctx)

    def _query(self, pattern: KeyPattern, ctx: Context) -> list[Item]:
        return [
            Item(instance.value, instance.key, instance.source)
            for instance in self.store.query(pattern)
        ]

    # ------------------------------------------------------------------
    # Compartment scope discovery
    # ------------------------------------------------------------------

    def scope_instances(self, name: str, ctx: Context) -> list[InstanceKey]:
        """All distinct scope instances matching a compartment name."""
        if self._scope_cache_size != self.store.instance_count:
            self._scope_cache.clear()
            self._scope_cache_size = self.store.instance_count
        compartment = ctx.compartment.render() if ctx.compartment else ""
        cache_key = (name, compartment)
        cached = self._scope_cache.get(cache_key)
        if cached is not None:
            return cached
        pattern = parse_pattern(name).substitute(ctx.env)
        width = len(pattern.segments)
        found: dict[tuple, InstanceKey] = {}
        for instance in self.store.instances():
            segments = instance.key.segments
            limit = len(segments) - 1  # the leaf is a parameter, not a scope
            for start in range(0, limit - width + 1):
                window = segments[start:start + width]
                if all(p.matches(s) for p, s in zip(pattern.segments, window)):
                    prefix = segments[:start + width]
                    if ctx.compartment is not None:
                        outer = ctx.compartment.segments
                        if (
                            len(prefix) <= len(outer)
                            or prefix[:len(outer)] != outer
                        ):
                            continue
                    if prefix not in found:
                        found[prefix] = InstanceKey(prefix)
        result = list(found.values())
        self._scope_cache[cache_key] = result
        return result

    # ==================================================================
    # Pipeline steps (§4.2.3)
    # ==================================================================

    def apply_step(
        self, step: ast.Step, items: list[Item], ctx: Context
    ) -> list[Item]:
        if isinstance(step, ast.TransformStep):
            return self._apply_transform(step, items, ctx)
        if isinstance(step, ast.TupleStep):
            out = []
            for item in items:
                parts = []
                for part in step.parts:
                    transformed = self._apply_transform(part, [item], ctx)
                    parts.append(transformed[0].value if transformed else "")
                out.append(item.with_value(parts))
            return out
        if isinstance(step, ast.ForeachStep):
            out = []
            for item in items:
                values = item.value if isinstance(item.value, list) else [item.value]
                for value in values:
                    inner = ctx.bind(_=value)
                    out.extend(self.resolve_notation(step.domain.notation, inner))
            return out
        if isinstance(step, ast.CondStep):
            out = []
            for item in items:
                holds, __ = self._eval_pred(step.condition, item, 0, ctx, {})
                if holds:
                    out.extend(self.apply_step(step.then, [item], ctx))
                elif step.otherwise is not None:
                    out.extend(self.apply_step(step.otherwise, [item], ctx))
                else:
                    out.append(item)
            return out
        raise EvaluationError(f"cannot apply step {type(step).__name__}")

    def _apply_transform(
        self, step: ast.TransformStep, items: list[Item], ctx: Context
    ) -> list[Item]:
        spec = get_transform(step.name)
        args = [self._single_operand_value(arg, ctx) for arg in step.args]
        if spec.reduce:
            values = [item.value for item in items]
            result = spec.fn(values, *args)
            template = items[0] if items else Item("")
            if isinstance(result, list) and step.name in (
                "union", "distinct", "flatten", "sort",
            ):
                # set-shaped results become one item per member
                return [Item(v) for v in result]
            return [template.with_value(result)]
        return [item.with_value(spec.fn(item.value, *args)) for item in items]

    # ==================================================================
    # Final predicate evaluation
    # ==================================================================

    def check_items(
        self,
        predicate: ast.PredExpr,
        items: list[Item],
        ctx: Context,
        spec: ast.SpecStatement,
    ) -> list[Violation]:
        # 1. unwrap an item-level quantifier (operand-level ones stay inline)
        quantifier = "forall"
        if isinstance(predicate, ast.Quantified) and not self._operand_level(
            predicate.operand
        ):
            quantifier = predicate.quantifier
            predicate = predicate.operand
        # 2. pre-compute aggregate predicates over the whole domain
        aggregates: dict[int, tuple[set[int], str]] = {}
        values = [_value_text(item.value) for item in items]
        self._collect_aggregates(predicate, values, aggregates)
        # 3. evaluate per item
        failures: list[tuple[Item, tuple[str, str]]] = []
        passed = 0
        for index, item in enumerate(items):
            ok, fail = self._eval_pred(predicate, item, index, ctx, aggregates)
            if ok:
                passed += 1
            else:
                failures.append((item, fail or ("predicate", "")))
        # 4. quantifier logic → violations
        if quantifier == "forall":
            return [
                self._violation(spec, item, constraint, detail, ctx)
                for item, (constraint, detail) in failures
            ]
        if quantifier == "exists":
            if passed >= 1:
                return []
            return [self._domain_violation(spec, items, "exists", ctx)]
        # exactly one
        if passed == 1:
            return []
        return [self._domain_violation(spec, items, f"exactly-one (got {passed})", ctx)]

    def _operand_level(self, predicate: ast.PredExpr) -> bool:
        """True when a quantifier directly governs operand-domain tuples."""
        if isinstance(predicate, (ast.RangePred, ast.RelPred, ast.SetPred)):
            operands = (
                (predicate.low, predicate.high)
                if isinstance(predicate, ast.RangePred)
                else (predicate.operand,)
                if isinstance(predicate, ast.RelPred)
                else predicate.members
            )
            return any(isinstance(op, ast.DomainRef) for op in operands)
        if isinstance(predicate, ast.PrimitiveCall):
            return any(isinstance(op, ast.DomainRef) for op in predicate.args)
        return False

    def _collect_aggregates(
        self,
        predicate: ast.PredExpr,
        values: list[str],
        out: dict[int, tuple[set[int], str]],
    ) -> None:
        if isinstance(predicate, ast.PrimitiveCall):
            spec = get_predicate(predicate.name)
            if spec.aggregate:
                args = [
                    op.value if isinstance(op, ast.Literal) else str(op)
                    for op in predicate.args
                ]
                offenders, detail = spec.fn(values, *args)
                out[id(predicate)] = (set(offenders), detail)
            return
        if isinstance(predicate, (ast.And, ast.Or)):
            self._collect_aggregates(predicate.left, values, out)
            self._collect_aggregates(predicate.right, values, out)
        elif isinstance(predicate, ast.Not):
            self._collect_aggregates(predicate.operand, values, out)
        elif isinstance(predicate, ast.Quantified):
            self._collect_aggregates(predicate.operand, values, out)
        elif isinstance(predicate, ast.IfPred):
            self._collect_aggregates(predicate.condition, values, out)
            self._collect_aggregates(predicate.then, values, out)
            if predicate.otherwise is not None:
                self._collect_aggregates(predicate.otherwise, values, out)
        elif isinstance(predicate, ast.MacroRef):
            self._collect_aggregates(self._macro(predicate.name), values, out)

    def _macro(self, name: str) -> ast.PredExpr:
        try:
            return self.macros[name]
        except KeyError:
            raise UnknownMacroError(f"undefined macro @{name}") from None

    # ------------------------------------------------------------------

    def _eval_pred(
        self,
        predicate: ast.PredExpr,
        item: Item,
        index: int,
        ctx: Context,
        aggregates: dict[int, tuple[set[int], str]],
    ) -> tuple[bool, Optional[tuple[str, str]]]:
        """Evaluate one predicate for one item → (ok, (constraint, message))."""
        if isinstance(predicate, ast.And):
            ok_left, fail_left = self._eval_pred(predicate.left, item, index, ctx, aggregates)
            if not ok_left:
                return False, fail_left
            return self._eval_pred(predicate.right, item, index, ctx, aggregates)
        if isinstance(predicate, ast.Or):
            ok_left, __ = self._eval_pred(predicate.left, item, index, ctx, aggregates)
            if ok_left:
                return True, None
            return self._eval_pred(predicate.right, item, index, ctx, aggregates)
        if isinstance(predicate, ast.Not):
            ok, __ = self._eval_pred(predicate.operand, item, index, ctx, aggregates)
            if ok:
                name = _describe(predicate.operand)
                return False, (f"~{name}", f"value {item.value!r} must not satisfy {name}")
            return True, None
        if isinstance(predicate, ast.IfPred):
            ok_cond, __ = self._eval_pred(predicate.condition, item, index, ctx, aggregates)
            if ok_cond:
                return self._eval_pred(predicate.then, item, index, ctx, aggregates)
            if predicate.otherwise is not None:
                return self._eval_pred(predicate.otherwise, item, index, ctx, aggregates)
            return True, None
        if isinstance(predicate, ast.Quantified):
            return self._eval_quantified(predicate, item, index, ctx, aggregates)
        if isinstance(predicate, ast.MacroRef):
            return self._eval_pred(self._macro(predicate.name), item, index, ctx, aggregates)
        if isinstance(predicate, ast.PrimitiveCall):
            return self._eval_primitive(predicate, item, index, ctx, aggregates)
        if isinstance(predicate, ast.RelPred):
            return self._eval_relation(predicate, item, ctx, "forall")
        if isinstance(predicate, ast.RangePred):
            return self._eval_range(predicate, item, ctx, "forall")
        if isinstance(predicate, ast.SetPred):
            return self._eval_set(predicate, item, ctx)
        raise EvaluationError(f"cannot evaluate predicate {type(predicate).__name__}")

    def _eval_quantified(self, predicate, item, index, ctx, aggregates):
        inner = predicate.operand
        q = predicate.quantifier
        if isinstance(inner, ast.RelPred):
            return self._eval_relation(inner, item, ctx, q)
        if isinstance(inner, ast.RangePred):
            return self._eval_range(inner, item, ctx, q)
        # quantifier over something without operand domains: item-level
        # quantification was already handled at check_items; treat as plain.
        return self._eval_pred(inner, item, index, ctx, aggregates)

    def _eval_primitive(self, predicate, item, index, ctx, aggregates):
        spec = get_predicate(predicate.name)
        if spec.aggregate:
            offenders, detail = aggregates.get(id(predicate), (set(), ""))
            if index in offenders:
                message = spec.message.format(
                    value=_value_text(item.value),
                    key=item.key_text or "<domain>",
                    args="",
                    detail=detail,
                    name=predicate.name,
                )
                return False, (predicate.name, message)
            return True, None
        args = [self._single_operand_value(arg, ctx, item) for arg in predicate.args]
        kwargs = {"runtime": self.runtime} if spec.needs_runtime else {}
        values = item.value if isinstance(item.value, list) else [item.value]
        for value in values:
            if not spec.fn(str(value), *args, **kwargs):
                message = spec.message.format(
                    value=value,
                    key=item.key_text or "<domain>",
                    args=tuple(args),
                    detail="",
                    name=predicate.name,
                )
                return False, (predicate.name, message)
        return True, None

    def _eval_relation(self, predicate, item, ctx, quantifier):
        operand_values = self._operand_values(predicate.operand, ctx, item)
        values = item.value if isinstance(item.value, list) else [item.value]
        outcomes = [
            compare(str(value), predicate.op, str(other))
            for value in values
            for other in operand_values
        ]
        ok = _quantify(outcomes, quantifier)
        if ok:
            return True, None
        shown = operand_values[0] if operand_values else "?"
        return False, (
            predicate.op,
            f"value {_value_text(item.value)!r} of {item.key_text or '<domain>'} "
            f"violates '{predicate.op} {shown}'",
        )

    def _eval_range(self, predicate, item, ctx, quantifier):
        lows = self._operand_values(predicate.low, ctx, item)
        highs = self._operand_values(predicate.high, ctx, item)
        values = item.value if isinstance(item.value, list) else [item.value]
        if not lows or not highs:
            return True, None  # vacuous outside compartments
        outcomes = []
        for low, high in itertools.product(lows, highs):
            outcomes.append(
                all(
                    compare(str(v), ">=", str(low)) and compare(str(v), "<=", str(high))
                    for v in values
                )
            )
        ok = _quantify(outcomes, quantifier)
        if ok:
            return True, None
        return False, (
            "range",
            f"value {_value_text(item.value)!r} of {item.key_text or '<domain>'} "
            f"is out of range [{lows[0]}, {highs[0]}]",
        )

    def _eval_set(self, predicate, item, ctx):
        members: list[str] = []
        for operand in predicate.members:
            members.extend(self._operand_values(operand, ctx, item))
        values = item.value if isinstance(item.value, list) else [item.value]
        ok = all(
            any(compare(str(v), "==", str(m)) for m in members) for v in values
        )
        if ok:
            return True, None
        preview = ", ".join(repr(m) for m in members[:5])
        return False, (
            "membership",
            f"value {_value_text(item.value)!r} of {item.key_text or '<domain>'} "
            f"is not one of {{{preview}}}",
        )

    # ------------------------------------------------------------------
    # Operands
    # ------------------------------------------------------------------

    def _operand_values(
        self, operand: ast.Operand, ctx: Context, item: Optional[Item] = None
    ) -> list[str]:
        if isinstance(operand, ast.Literal):
            return [str(operand.value)]
        if isinstance(operand, ast.ContextRef):
            if item is None:
                raise EvaluationError("$_ used outside a pipeline")
            return [_value_text(item.value)]
        if isinstance(operand, ast.DomainRef):
            return [_value_text(i.value) for i in self.resolve_notation(operand.notation, ctx)]
        raise EvaluationError(f"bad operand {type(operand).__name__}")

    def _single_operand_value(
        self, operand: ast.Operand, ctx: Context, item: Optional[Item] = None
    ):
        if isinstance(operand, ast.Literal):
            return operand.value
        values = self._operand_values(operand, ctx, item)
        distinct = sorted(set(values))
        if len(distinct) != 1:
            raise EvaluationError(
                f"argument domain must have exactly one distinct value, "
                f"got {len(distinct)}"
            )
        return distinct[0]

    # ------------------------------------------------------------------
    # Violations
    # ------------------------------------------------------------------

    def _violation(
        self,
        spec: ast.SpecStatement,
        item: Item,
        constraint: str,
        message: str,
        ctx: Context,
    ) -> Violation:
        key = item.key_text
        if spec.custom_message:
            # §4.4: per-check override of the auto-generated message
            message = spec.custom_message.format(
                key=key or "<domain>", value=_value_text(item.value)
            )
        return Violation(
            spec_text=spec.text or "<spec>",
            spec_line=spec.line,
            constraint=constraint,
            key=key,
            value=_value_text(item.value),
            message=message or f"value {item.value!r} of {key} failed {constraint}",
            severity=self.policy.severity_of(key),
            source=item.source,
        )

    def _domain_violation(
        self, spec: ast.SpecStatement, items: list[Item], what: str, ctx: Context
    ) -> Violation:
        key = items[0].key_text if items else ""
        if spec.custom_message:
            message = spec.custom_message.format(key=key or "<domain>", value="")
            return Violation(
                spec_text=spec.text or "<spec>",
                spec_line=spec.line,
                constraint=what,
                key=key,
                value="",
                message=message,
                severity=self.policy.severity_of(key),
                source=items[0].source if items else "",
            )
        return Violation(
            spec_text=spec.text or "<spec>",
            spec_line=spec.line,
            constraint=what,
            key=key,
            value="",
            message=f"quantifier '{what}' not satisfied over {len(items)} instance(s)",
            severity=self.policy.severity_of(key),
            source=items[0].source if items else "",
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _quantify(outcomes: list[bool], quantifier: str) -> bool:
    if quantifier == "forall":
        return all(outcomes)
    if quantifier == "exists":
        return any(outcomes)
    return sum(outcomes) == 1  # exactly one


def _value_text(value: Union[str, list]) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def _arith(op: str, left, right) -> str:
    a, b = coerce_scalar(str(left)), coerce_scalar(str(right))
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        if op == "+":
            return str(left) + str(right)  # string concatenation
        raise EvaluationError(f"non-numeric operands for '{op}'")
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    else:
        if b == 0:
            raise EvaluationError("division by zero in domain expression")
        result = a / b
    if isinstance(result, float) and result.is_integer():
        result = int(result)
    return str(result)


def _describe(predicate: ast.PredExpr) -> str:
    if isinstance(predicate, ast.PrimitiveCall):
        return predicate.name
    if isinstance(predicate, ast.MacroRef):
        return f"@{predicate.name}"
    if isinstance(predicate, ast.RelPred):
        return f"{predicate.op} …"
    return type(predicate).__name__.lower()


def _collect_notations(node) -> Iterable[str]:
    """Yield every configuration notation text inside an AST subtree."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.DomainRef):
            yield current.notation
            continue
        if isinstance(current, (list, tuple)):
            stack.extend(current)
            continue
        if isinstance(current, ast.Node):
            stack.extend(current.field_values())
