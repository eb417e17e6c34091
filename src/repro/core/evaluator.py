"""The ConfValley validation engine (paper §4.1, §4.2).

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

**Lowering.**  An evaluator lowers each statement into closures the first
time it executes it and keeps them for its lifetime.  Lowering resolves
once what does not depend on the data (predicate and transformation
lookups, literal arguments, parsed notations, free variables, coerced
constant operands); ``let`` macros and unresolvable names stay late-bound,
so every report, error and counter is the tree-walking interpreter's.
``docs/ARCHITECTURE.md`` has the design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from ..cpl import ast
from ..errors import (
    CPLSemanticError,
    EvaluationError,
    UnknownMacroError,
    UnknownPredicateError,
    UnknownTransformError,
)
from ..observability.analytics import add_seconds
from ..predicates import get_predicate
from ..predicates.relational import RELATION_OPS, coerce_scalar, compare_coerced
from ..repository.keys import InstanceKey, KeyPattern, parse_pattern
from ..repository.store import ConfigStore
from ..runtime import RuntimeProvider, StaticRuntime
from ..runtime import clock as _clock
from ..transforms import get_transform
from .policy import ValidationPolicy
from .report import ValidationReport, Violation

__all__ = ["Evaluator", "Item", "Context"]

#: lowered statements an evaluator keeps before starting its table afresh,
#: so a long-lived session validating ever-new spec texts stays bounded
_LOWERED_LIMIT = 8192


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


@dataclass(frozen=True, slots=True)
class Context:
    """Evaluation context: bindings and active scopes."""

    env: dict = field(default_factory=dict)
    namespaces: tuple[str, ...] = ()
    compartment: Optional[InstanceKey] = None

    def bind(self, **bindings) -> "Context":
        merged = dict(self.env)
        merged.update(bindings)
        return Context(merged, self.namespaces, self.compartment)


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
        #: the store's distinct non-leaf key prefixes in first-appearance
        #: order, listed on the first compartment lookup of a store state
        self._scope_prefixes: Optional[list[tuple]] = None
        #: id(statement) -> (statement, its lowered closure)
        self._lowered: dict[int, tuple] = {}
        #: macro name -> (predicate it was lowered from, lowered predicate)
        self._lowered_macros: dict[str, tuple] = {}

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
        entry = self._lowered.get(id(statement))
        if entry is None:
            if len(self._lowered) >= _LOWERED_LIMIT:
                self._lowered.clear()
            entry = (statement, _lower_statement(statement))
            self._lowered[id(statement)] = entry
        entry[1](self, ctx, report)

    # ==================================================================
    # Variables (§4.2.2) and macros
    # ==================================================================

    def _bindings(self, variables: tuple[str, ...], ctx: Context) -> Iterable[Context]:
        """Expand the variables ``ctx`` leaves free over the distinct
        values of their domains."""
        free = [name for name in variables if name not in ctx.env]
        if not free:
            yield ctx
            return
        pools: list[list[str]] = []
        for name in free:
            values = sorted({i.value for i in self._query(parse_pattern(name))})
            if not values:
                return  # unbound variable domain: statement is vacuous
            pools.append(values)
        for combo in itertools.product(*pools):
            yield ctx.bind(**dict(zip(free, combo)))

    def _macro(self, name: str) -> tuple:
        """The lowered body of macro ``name`` as currently defined."""
        try:
            predicate = self.macros[name]
        except KeyError:
            raise UnknownMacroError(f"undefined macro @{name}") from None
        entry = self._lowered_macros.get(name)
        if entry is None or entry[0] is not predicate:
            entry = (predicate, _lower_predicate(predicate))
            self._lowered_macros[name] = entry
        return entry[1]

    # ==================================================================
    # Domain resolution
    # ==================================================================

    def resolve_notation(self, notation: str, ctx: Context) -> list[Item]:
        """Resolve one configuration notation to its instances.

        Resolution order (paper §4.2.2): compartment-instance prefix, then
        each active namespace, then the bare notation.  Inside a compartment
        an absent domain raises :class:`_Skip` so the enclosing compartment
        instance is skipped.
        """
        return self._resolve(notation, None, ctx)

    def _resolve(
        self, notation: str, parsed: Optional[tuple], ctx: Context
    ) -> list[Item]:
        """:meth:`resolve_notation` given ``(pattern, has variables)``, the
        notation as lowering parsed it (None: parse it now)."""
        # a bound variable used as a bare notation IS its bound value
        # (e.g. `$_ == $CloudName` inside a per-$CloudName expansion)
        if "." not in notation and notation in ctx.env:
            return [Item(str(ctx.env[notation]))]
        pattern, variables = parsed or _parse_notation(notation)
        if variables:
            pattern = pattern.substitute(ctx.env)
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
                instances = self._query(scoped)
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
            instances = self._query(prefixed)
            if instances:
                return instances
        return self._query(pattern)

    def _query(self, pattern: KeyPattern) -> list[Item]:
        return [
            Item(instance.value, instance.key, instance.source)
            for instance in self.store.query(pattern)
        ]

    # ------------------------------------------------------------------
    # Compartment scope discovery
    # ------------------------------------------------------------------

    def scope_instances(self, name: str, ctx: Context) -> list[InstanceKey]:
        """All distinct scope instances matching a compartment name.

        A scope instance is a non-leaf key prefix whose last segments match
        the compartment pattern.  The store's distinct prefixes are listed
        once per store state, in first-appearance order (instance load
        order, then prefix length), and each lookup matches every prefix
        once rather than every segment window of every instance.
        """
        if self._scope_cache_size != self.store.instance_count:
            self._scope_cache.clear()
            self._scope_prefixes = None
            self._scope_cache_size = self.store.instance_count
        compartment = ctx.compartment.render() if ctx.compartment else ""
        cache_key = (name, compartment)
        cached = self._scope_cache.get(cache_key)
        if cached is not None:
            return cached
        if self._scope_prefixes is None:
            self._scope_prefixes = _distinct_prefixes(self.store)
        wanted = parse_pattern(name).substitute(ctx.env).segments
        width = len(wanted)
        outer = ctx.compartment.segments if ctx.compartment is not None else None
        result = []
        for prefix in self._scope_prefixes:
            if len(prefix) < width or not all(
                p.matches(s) for p, s in zip(wanted, prefix[len(prefix) - width:])
            ):
                continue
            if outer is not None and (
                len(prefix) <= len(outer) or prefix[:len(outer)] != outer
            ):
                continue
            result.append(InstanceKey(prefix))
        self._scope_cache[cache_key] = result
        return result


def _distinct_prefixes(store: ConfigStore) -> list[tuple]:
    """Every distinct non-leaf key prefix, in first-appearance order."""
    root: dict = {}
    prefixes: list[tuple] = []
    previous = None
    for instance in store.instances():
        segments = instance.key.segments
        scope = segments[:-1]
        if scope == previous:
            continue  # siblings share every prefix
        previous = scope
        node = root
        for depth, segment in enumerate(scope, 1):
            child = node.get(segment)
            if child is None:
                child = node[segment] = {}
                prefixes.append(segments[:depth])
            node = child
    return prefixes


# ===========================================================================
# Lowering: statements
# ===========================================================================

_Run = Callable[[Evaluator, Context, ValidationReport], None]


def _raiser(error: type, message: str) -> Callable:
    """A lowered step that fails when it runs, not when it is lowered."""

    def fail(*__):
        raise error(message)
    return fail


def _lower_statement(statement: ast.Statement) -> _Run:
    if isinstance(statement, ast.SpecStatement):
        return _Spec(statement).execute
    if isinstance(statement, ast.CompartmentBlock):
        name, body = statement.name, statement.body

        def run(ev, ctx, report):
            for scope_key in ev.scope_instances(name, ctx):
                ev.execute_block(body, Context(ctx.env, ctx.namespaces, scope_key), report)
        return run
    if isinstance(statement, ast.NamespaceBlock):
        names, body = statement.names, statement.body

        def run(ev, ctx, report):
            inner = Context(ctx.env, names + ctx.namespaces, ctx.compartment)
            ev.execute_block(body, inner, report)
        return run
    if isinstance(statement, ast.LetCmd):
        name, predicate = statement.name, statement.predicate

        def run(ev, ctx, report):
            ev.macros[name] = predicate
        return run
    if isinstance(statement, ast.IfStatement):
        variables = _free_variables(statement)
        holds = _Spec(statement.condition.spec).holds
        then, otherwise = statement.then, statement.otherwise

        def run(ev, ctx, report):
            for bound in ev._bindings(variables, ctx):
                if holds(ev, bound):
                    ev.execute_block(then, bound, report)
                elif otherwise:
                    ev.execute_block(otherwise, bound, report)
        return run
    if isinstance(statement, ast.GetCmd):
        resolve = _lower_domain(statement.domain)

        def run(ev, ctx, report):
            # surface resolved instances in the report (console shows them)
            try:
                items = resolve(ev, ctx)
            except _Skip:
                items = []
            for item in items:
                report.notes.append(f"{item.key_text or '<value>'} = {item.value!r}")
        return run
    if isinstance(statement, (ast.LoadCmd, ast.IncludeCmd)):
        return _raiser(
            CPLSemanticError,
            "load/include must be resolved by the session before evaluation",
        )
    return _raiser(CPLSemanticError, f"cannot execute {type(statement).__name__}")


def _free_variables(node) -> tuple[str, ...]:
    """The substitutable variables a statement mentions, sorted."""
    names: set[str] = set()
    for notation in ast.notations(node):
        if "$" not in notation:
            continue  # variables are the `$name` parts
        try:
            names |= parse_pattern(notation).variables
        except Exception:
            continue
    names.discard("_")
    return tuple(sorted(names))


class _Probe:
    """The report fields an ``if`` condition's probe run touches."""

    __slots__ = ("violations", "specs_skipped", "instances_checked", "suppressed")

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.specs_skipped = self.instances_checked = self.suppressed = 0

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)


class _Spec:
    """One lowered spec: ``execute`` runs it as a statement, ``holds``
    probes it as an ``if`` condition (true when it passes without skips).

    A slotted object rather than nested closures: a program keeps one per
    spec for the evaluator's lifetime, so its size is the lowering's memory.
    """

    __slots__ = ("compartment", "resolve", "steps", "quantifier", "test", "collect",
                 "variables", "key", "text", "line", "custom")

    def __init__(self, spec: ast.SpecStatement) -> None:
        self.compartment = None
        if isinstance(spec.domain, ast.CompartmentDomain):
            # inline compartment: the spec runs per compartment instance, as
            # a spec over the inner domain that carries no custom message
            self.compartment = spec.domain.compartment
            spec = ast.SpecStatement(spec.domain.inner, spec.steps, spec.text, spec.line)
        self.resolve = _lower_domain(spec.domain)
        self.steps = tuple(_lower_step(step) for step in spec.steps[:-1])
        final = spec.steps[-1]
        assert isinstance(final, ast.PredicateStep)
        # an item-level quantifier is unwrapped; operand-level ones stay inline
        predicate, self.quantifier = final.predicate, "forall"
        if isinstance(predicate, ast.Quantified) and not _operand_level(predicate.operand):
            self.quantifier, predicate = predicate.quantifier, predicate.operand
        self.test, self.collect = _lower_predicate(predicate)
        self.variables = _free_variables(spec)
        self.text = spec.text or "<spec>"
        self.line, self.custom = spec.line, spec.custom_message
        self.key = (self.line, self.text)

    def execute(self, ev: Evaluator, ctx: Context, report: ValidationReport) -> None:
        measuring = ev.profile or ev.analytics
        started = _clock.now() if measuring else 0.0
        if ev.analytics:
            evals_before = report.specs_evaluated
            instances_before = report.instances_checked
            violations_before = len(report.violations)
        for bound in ev._bindings(self.variables, ctx):
            self.evaluate(ev, bound, report, True)
        if not measuring:
            return
        elapsed = _clock.now() - started
        key = self.key
        if ev.profile:
            report.spec_timings[key] = report.spec_timings.get(key, 0.0) + elapsed
        if ev.analytics:
            row = report.spec_profile.get(key)
            if row is None:
                row = {"evals": 0, "instances": 0, "violations": 0, "seconds": 0.0}
                report.spec_profile[key] = row
            row["evals"] += report.specs_evaluated - evals_before
            row["instances"] += report.instances_checked - instances_before
            row["violations"] += len(report.violations) - violations_before
            row["seconds"] = add_seconds(row["seconds"], elapsed)

    def holds(self, ev: Evaluator, ctx: Context) -> bool:
        probe = _Probe()
        try:
            self.evaluate(ev, ctx, probe, False)
        except _Skip:
            return False
        return not probe.violations and not probe.specs_skipped

    def evaluate(self, ev: Evaluator, ctx: Context, sink, counting: bool) -> None:
        if counting:
            sink.specs_evaluated += 1
        if self.compartment is None:
            scopes = (ctx,)
        else:
            scopes = [
                Context(ctx.env, ctx.namespaces, scope_key)
                for scope_key in ev.scope_instances(self.compartment, ctx)
            ]
        policy = ev.policy
        for scoped in scopes:
            before = len(sink.violations)
            try:
                items = self.resolve(ev, scoped)
                for step in self.steps:
                    items = step(ev, items, scoped)
                violations = self.check(ev, items, scoped)
                sink.instances_checked += len(items)
                for violation in violations:
                    if policy.is_suppressed(violation):
                        sink.suppressed += 1
                        continue
                    sink.add(violation)
                    if policy.on_violation is not None:
                        policy.on_violation(violation)
            except _Skip:
                sink.specs_skipped += 1
            if counting and len(sink.violations) > before:
                sink.specs_failed += 1

    def check(self, ev: Evaluator, items: list, ctx: Context) -> list[Violation]:
        """The final predicate over the items, as violations."""
        frame = _Frame(ev, ctx)
        if self.collect is not None:
            self.collect([_value_text(item.value) for item in items], frame)
        test = self.test
        failures = []
        passed = 0
        for index, item in enumerate(items):
            failure = test(item, index, frame)
            if failure is None:
                passed += 1
            else:
                failures.append((item, failure))
        if self.quantifier == "forall":
            return [self.violation(ev, item, *failure) for item, failure in failures]
        if self.quantifier == "exists":
            return [] if passed >= 1 else [self.domain_violation(ev, items, "exists")]
        if passed == 1:  # exactly one
            return []
        return [self.domain_violation(ev, items, f"exactly-one (got {passed})")]

    def violation(self, ev, item, constraint, message) -> Violation:
        key, value = item.key_text, _value_text(item.value)
        if self.custom:
            # §4.4: per-check override of the auto-generated message
            message = self.custom.format(key=key or "<domain>", value=value)
        message = message or f"value {item.value!r} of {key} failed {constraint}"
        return Violation(self.text, self.line, constraint, key, value, message,
                         ev.policy.severity_of(key), item.source)

    def domain_violation(self, ev, items, what) -> Violation:
        key = items[0].key_text if items else ""
        if self.custom:
            message = self.custom.format(key=key or "<domain>", value="")
        else:
            message = f"quantifier '{what}' not satisfied over {len(items)} instance(s)"
        return Violation(self.text, self.line, what, key, "", message,
                         ev.policy.severity_of(key), items[0].source if items else "")


# ===========================================================================
# Lowering: domains and pipeline steps
# ===========================================================================

_Resolve = Callable[[Evaluator, Context], list]
_Apply = Callable[[Evaluator, list, Context], list]


def _parse_notation(notation: str) -> tuple[KeyPattern, bool]:
    pattern = parse_pattern(notation)
    return pattern, bool(pattern.variables)


def _lower_notation(notation: str) -> _Resolve:
    try:
        parsed = _parse_notation(notation)
    except Exception:
        parsed = None  # parse (and fail) where it is used

    def resolve(ev, ctx):
        return ev._resolve(notation, parsed, ctx)
    return resolve


def _lower_domain(domain: ast.DomainExpr) -> _Resolve:
    if isinstance(domain, ast.DomainRef):
        return _lower_notation(domain.notation)
    if isinstance(domain, ast.UnionDomain):
        members = tuple(_lower_domain(member) for member in domain.members)

        def resolve(ev, ctx):
            return [item for member in members for item in member(ev, ctx)]
        return resolve
    if isinstance(domain, ast.CompartmentDomain):
        name, inner = domain.compartment, _lower_domain(domain.inner)

        def resolve(ev, ctx):
            out = []
            for scope_key in ev.scope_instances(name, ctx):
                try:
                    out.extend(inner(ev, Context(ctx.env, ctx.namespaces, scope_key)))
                except _Skip:
                    continue
            return out
        return resolve
    if isinstance(domain, ast.TransformDomain):
        inner = _lower_domain(domain.inner)
        transform = _lower_transform(domain.name, domain.args)
        return lambda ev, ctx: transform(ev, inner(ev, ctx), ctx)
    if isinstance(domain, ast.BinOpDomain):
        op = domain.op
        left, right = _lower_domain(domain.left), _lower_domain(domain.right)

        def resolve(ev, ctx):
            pairs = itertools.product(left(ev, ctx), right(ev, ctx))
            return [a.with_value(_arith(op, a.value, b.value)) for a, b in pairs]
        return resolve
    return _raiser(EvaluationError, f"cannot resolve domain {type(domain).__name__}")


def _lower_step(step: ast.Step) -> _Apply:
    if isinstance(step, ast.TransformStep):
        return _lower_transform(step.name, step.args)
    if isinstance(step, ast.TupleStep):
        parts = tuple(_lower_transform(part.name, part.args) for part in step.parts)

        def apply(ev, items, ctx):
            out = []
            for item in items:
                values = []
                for part in parts:
                    transformed = part(ev, [item], ctx)
                    values.append(transformed[0].value if transformed else "")
                out.append(item.with_value(values))
            return out
        return apply
    if isinstance(step, ast.ForeachStep):
        requery = _lower_notation(step.domain.notation)

        def apply(ev, items, ctx):
            out = []
            for item in items:
                values = item.value if isinstance(item.value, list) else [item.value]
                for value in values:
                    out.extend(requery(ev, ctx.bind(_=value)))
            return out
        return apply
    if isinstance(step, ast.CondStep):
        condition = _lower_predicate(step.condition)[0]
        then = _lower_step(step.then)
        otherwise = _lower_step(step.otherwise) if step.otherwise is not None else None

        def apply(ev, items, ctx):
            frame = _Frame(ev, ctx)  # no aggregates collected: they pass
            out = []
            for item in items:
                if condition(item, 0, frame) is None:
                    out.extend(then(ev, [item], ctx))
                elif otherwise is not None:
                    out.extend(otherwise(ev, [item], ctx))
                else:
                    out.append(item)
            return out
        return apply
    return _raiser(EvaluationError, f"cannot apply step {type(step).__name__}")


#: reduce transformations whose list result becomes one item per member
_SET_SHAPED = ("union", "distinct", "flatten", "sort")


def _lower_transform(name: str, args: tuple) -> _Apply:
    try:
        spec = get_transform(name)
    except UnknownTransformError as exc:
        return _raiser(UnknownTransformError, str(exc))
    arguments = tuple(_lower_argument(arg) for arg in args)

    def apply(ev, items, ctx):
        values = [argument(None, ev, ctx) for argument in arguments]
        if spec.reduce:
            result = spec.fn([item.value for item in items], *values)
            template = items[0] if items else Item("")
            if isinstance(result, list) and name in _SET_SHAPED:
                return [Item(v) for v in result]
            return [template.with_value(result)]
        return [item.with_value(spec.fn(item.value, *values)) for item in items]
    return apply


# ===========================================================================
# Lowering: predicates
# ===========================================================================
#
# A lowered predicate is a pair (test, collect):
#   test(item, index, frame) is None when the item passes, else the
#       failure's (constraint, message);
#   collect(values, frame) runs the aggregate primitives over the whole
#       domain before any item is tested, or is None when there are none.
#       It is also where unknown predicates and macros raise: after the
#       domain resolved, before the first item, as they always have.


class _Frame:
    """What one check shares across its items."""

    __slots__ = ("ev", "ctx", "aggregates", "operands", "coerced")

    def __init__(self, ev: Evaluator, ctx: Context) -> None:
        self.ev = ev
        self.ctx = ctx
        #: aggregate key -> (offending indices, detail)
        self.aggregates: dict = {}
        #: operand key -> the operand's values under ctx (item-independent)
        self.operands: dict = {}
        #: raw text -> coerce_scalar(text): each value is coerced once
        self.coerced: dict = {}

    def coerce(self, text: str):
        coerced = self.coerced.get(text, _MISSING)
        if coerced is _MISSING:
            coerced = self.coerced[text] = coerce_scalar(text)
        return coerced


_MISSING = object()
_NO_OFFENDERS = (frozenset(), "")


def _operand_level(predicate: ast.PredExpr) -> bool:
    """True when a quantifier directly governs operand-domain tuples."""
    if isinstance(predicate, ast.RangePred):
        operands = (predicate.low, predicate.high)
    elif isinstance(predicate, ast.RelPred):
        operands = (predicate.operand,)
    elif isinstance(predicate, ast.SetPred):
        operands = predicate.members
    elif isinstance(predicate, ast.PrimitiveCall):
        operands = predicate.args
    else:
        return False
    return any(isinstance(op, ast.DomainRef) for op in operands)


def _chain(*collects) -> Optional[Callable]:
    present = [collect for collect in collects if collect is not None]
    if len(present) <= 1:
        return present[0] if present else None

    def collect(values, frame):
        for part in present:
            part(values, frame)
    return collect


def _lower_predicate(node: ast.PredExpr) -> tuple[Callable, Optional[Callable]]:
    if isinstance(node, ast.PrimitiveCall):
        return _lower_primitive(node)
    if isinstance(node, (ast.And, ast.Or)):
        left, left_collect = _lower_predicate(node.left)
        right, right_collect = _lower_predicate(node.right)
        if isinstance(node, ast.And):
            def test(item, index, frame):
                failure = left(item, index, frame)
                return failure if failure is not None else right(item, index, frame)
        else:
            def test(item, index, frame):
                if left(item, index, frame) is None:
                    return None
                return right(item, index, frame)
        return test, _chain(left_collect, right_collect)
    if isinstance(node, ast.Not):
        operand, collect = _lower_predicate(node.operand)
        name = _describe(node.operand)

        def test(item, index, frame):
            if operand(item, index, frame) is None:
                return f"~{name}", f"value {item.value!r} must not satisfy {name}"
            return None
        return test, collect
    if isinstance(node, ast.IfPred):
        condition, condition_collect = _lower_predicate(node.condition)
        then, then_collect = _lower_predicate(node.then)
        otherwise, otherwise_collect = (
            _lower_predicate(node.otherwise) if node.otherwise is not None else (None, None)
        )

        def test(item, index, frame):
            if condition(item, index, frame) is None:
                return then(item, index, frame)
            return otherwise(item, index, frame) if otherwise is not None else None
        return test, _chain(condition_collect, then_collect, otherwise_collect)
    if isinstance(node, ast.Quantified):
        if isinstance(node.operand, (ast.RelPred, ast.RangePred)):
            return _lower_comparison(node.operand, node.quantifier), None
        # no operand domains to quantify over: item-level quantification
        # was handled by the check, so this is the plain predicate
        return _lower_predicate(node.operand)
    if isinstance(node, ast.MacroRef):
        name = node.name

        def test(item, index, frame):
            return frame.ev._macro(name)[0](item, index, frame)

        def collect(values, frame):
            body = frame.ev._macro(name)[1]
            if body is not None:
                body(values, frame)
        return test, collect
    if isinstance(node, (ast.RelPred, ast.RangePred)):
        return _lower_comparison(node, "forall"), None
    if isinstance(node, ast.SetPred):
        return _lower_membership(node), None
    return _raiser(EvaluationError, f"cannot evaluate predicate {type(node).__name__}"), None


def _lower_primitive(node: ast.PrimitiveCall) -> tuple[Callable, Optional[Callable]]:
    name = node.name
    try:
        spec = get_predicate(name)
    except UnknownPredicateError as exc:
        fail = _raiser(UnknownPredicateError, str(exc))
        return fail, fail
    fn, template = spec.fn, spec.message
    if spec.aggregate:
        args = [op.value if isinstance(op, ast.Literal) else str(op) for op in node.args]
        key = object()

        def collect(values, frame):
            offenders, detail = fn(values, *args)
            frame.aggregates[key] = (set(offenders), detail)

        def test(item, index, frame):
            offenders, detail = frame.aggregates.get(key, _NO_OFFENDERS)
            if index not in offenders:
                return None
            return name, template.format(
                value=_value_text(item.value), key=item.key_text or "<domain>",
                args="", detail=detail, name=name,
            )
        return test, collect
    if not node.args and not spec.needs_runtime:
        # the common shape (`int`, `nonempty`): one call per value
        def test(item, index, frame):
            value = item.value
            if value.__class__ is str:
                return None if fn(value) else _failure(name, template, value, item, ())
            for member in value if isinstance(value, list) else (value,):
                if not fn(str(member)):
                    return _failure(name, template, member, item, ())
            return None
        return test, None
    arguments = tuple(_lower_argument(arg) for arg in node.args)
    needs_runtime = spec.needs_runtime

    def test(item, index, frame):
        args = tuple(argument(item, frame.ev, frame.ctx) for argument in arguments)
        kwargs = {"runtime": frame.ev.runtime} if needs_runtime else {}
        value = item.value
        for member in value if isinstance(value, list) else (value,):
            if not fn(str(member), *args, **kwargs):
                return _failure(name, template, member, item, args)
        return None
    return test, None


def _failure(name: str, template: str, value, item: Item, args) -> tuple:
    """A per-value primitive's failure, with its auto-generated message."""
    return name, template.format(
        value=value, key=item.key_text or "<domain>", args=args, detail="", name=name
    )


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


def _lower_operand(operand: ast.Operand) -> Callable:
    """``values(item, frame) -> ((text, coerced), …)`` for a compared operand.

    A literal is coerced once, here; a domain's values depend only on the
    check's context, so it resolves once per check, when first needed.
    """
    if isinstance(operand, ast.Literal):
        pairs = ((str(operand.value), coerce_scalar(str(operand.value))),)
        return lambda item, frame: pairs
    if isinstance(operand, ast.ContextRef):
        def values(item, frame):
            text = _value_text(item.value)
            return ((text, frame.coerce(text)),)
        return values
    if isinstance(operand, ast.DomainRef):
        domain, key = _lower_notation(operand.notation), object()

        def values(item, frame):
            found = frame.operands.get(key)
            if found is None:
                texts = [_value_text(i.value) for i in domain(frame.ev, frame.ctx)]
                found = tuple((text, frame.coerce(text)) for text in texts)
                frame.operands[key] = found
            return found
        return values
    return _raiser(EvaluationError, f"bad operand {type(operand).__name__}")


def _lower_argument(operand: ast.Operand) -> Callable:
    """``argument(item, ev, ctx)``: a call argument's single value.

    A literal passes as written; ``$_`` and a domain must have exactly one
    distinct value.  Transformation arguments see no item, so ``$_`` is an
    error there.
    """
    if isinstance(operand, ast.Literal):
        return lambda item, ev, ctx, value=operand.value: value
    if isinstance(operand, ast.ContextRef):
        def argument(item, ev, ctx):
            if item is None:
                raise EvaluationError("$_ used outside a pipeline")
            return _value_text(item.value)
        return argument
    if isinstance(operand, ast.DomainRef):
        domain = _lower_notation(operand.notation)

        def argument(item, ev, ctx):
            distinct = sorted({_value_text(i.value) for i in domain(ev, ctx)})
            if len(distinct) != 1:
                raise EvaluationError(
                    f"argument domain must have exactly one distinct value, "
                    f"got {len(distinct)}"
                )
            return distinct[0]
        return argument
    return _raiser(EvaluationError, f"bad operand {type(operand).__name__}")


def _quantify(outcomes: Iterable[bool], quantifier: str) -> bool:
    if quantifier == "forall":
        return all(outcomes)
    if quantifier == "exists":
        return any(outcomes)
    return sum(outcomes) == 1  # exactly one


_EQ, _LE, _GE = RELATION_OPS["=="], RELATION_OPS["<="], RELATION_OPS[">="]


def _lower_comparison(node, quantifier: str) -> Callable:
    """A relation (``<= $Max``) or range (``[low, high]``) test over the
    product of the item's values and the operand values."""
    is_range = isinstance(node, ast.RangePred)
    if is_range:
        bounds = (_lower_operand(node.low), _lower_operand(node.high))
    else:
        op, bounds = node.op, (_lower_operand(node.operand),)
        fn = RELATION_OPS.get(op) or _raiser(KeyError, op)

    def test(item, index, frame):
        sides = [bound(item, frame) for bound in bounds]
        value = item.value
        texts = [str(v) for v in value] if isinstance(value, list) else [str(value)]
        values = [(text, frame.coerce(text)) for text in texts]
        if not is_range:
            outcomes = (
                compare_coerced(fn, text, coerced, other, other_coerced)
                for text, coerced in values
                for other, other_coerced in sides[0]
            )
        elif not sides[0] or not sides[1]:
            return None  # vacuous outside compartments
        else:
            outcomes = (
                all(
                    compare_coerced(_GE, text, coerced, low, low_coerced)
                    and compare_coerced(_LE, text, coerced, high, high_coerced)
                    for text, coerced in values
                )
                for (low, low_coerced), (high, high_coerced) in itertools.product(*sides)
            )
        if _quantify(outcomes, quantifier):
            return None
        where = f"value {_value_text(value)!r} of {item.key_text or '<domain>'}"
        if is_range:
            return "range", f"{where} is out of range [{sides[0][0][0]}, {sides[1][0][0]}]"
        return op, f"{where} violates '{op} {sides[0][0][0] if sides[0] else '?'}'"
    return test


def _lower_membership(node: ast.SetPred) -> Callable:
    """``{a, $B, …}``: every value of the item equals some member."""
    operands = tuple(_lower_operand(member) for member in node.members)

    def test(item, index, frame):
        members = [pair for values in operands for pair in values(item, frame)]
        value = item.value
        texts = [str(v) for v in value] if isinstance(value, list) else [str(value)]
        if all(
            any(compare_coerced(_EQ, text, frame.coerce(text), member, coerced)
                for member, coerced in members)
            for text in texts
        ):
            return None
        preview = ", ".join(repr(member) for member, __ in members[:5])
        return "membership", (
            f"value {_value_text(value)!r} of {item.key_text or '<domain>'} "
            f"is not one of {{{preview}}}"
        )
    return test


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


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
