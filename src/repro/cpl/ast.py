"""CPL abstract syntax tree (paper Listing 4).

The tree distinguishes three layers:

* **statements** — commands (``load``/``include``/``let``/``get``), scope
  blocks (``namespace``/``compartment``), conditional statements, and
  specification statements (``domain -> pipeline``);
* **domains** — configuration notations, inline compartments, arithmetic
  combinations and prefix transformations;
* **predicates** — the boolean layer with logical connectives, quantifiers,
  primitives, ranges, sets, relations and macro references.

Pipelines (paper §4.2.3) are sequences of steps ending in a predicate; each
step is a transformation call, a tuple of transformations, a ``foreach``
re-query, or a predicated transformation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Optional, Union

__all__ = [
    "Node",
    "Program",
    "LoadCmd",
    "IncludeCmd",
    "LetCmd",
    "GetCmd",
    "NamespaceBlock",
    "CompartmentBlock",
    "IfStatement",
    "SpecStatement",
    "DomainRef",
    "ContextRef",
    "CompartmentDomain",
    "BinOpDomain",
    "TransformDomain",
    "UnionDomain",
    "TransformStep",
    "TupleStep",
    "ForeachStep",
    "CondStep",
    "PredicateStep",
    "And",
    "Or",
    "Not",
    "Quantified",
    "IfPred",
    "PrimitiveCall",
    "RangePred",
    "SetPred",
    "RelPred",
    "MacroRef",
    "ConditionSpec",
    "Literal",
    "Statement",
    "DomainExpr",
    "PredExpr",
    "Step",
    "Operand",
    "walk",
    "notations",
]


class _NodeType(type):
    """Makes each annotated field of a node class a slot, in order.

    A class-level value given for a field becomes that field's default.
    """

    def __new__(mcs, name, bases, namespace):
        fields = tuple(
            field for field in namespace.get("__annotations__", ())
            if not field.startswith("_")
        )
        namespace["_defaults"] = {
            field: namespace.pop(field) for field in fields if field in namespace
        }
        namespace["__slots__"] = namespace["_fields"] = fields
        cls = super().__new__(mcs, name, bases, namespace)
        if len(fields) > 1:
            cls._values = staticmethod(attrgetter(*fields))
        elif fields:
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda node: (get(node),))
        else:
            cls._values = staticmethod(lambda node: ())
        return cls


class Node(metaclass=_NodeType):
    """Base class of every AST node: immutable, slotted, compared by value.

    A node class declares its fields as annotations, optional trailing ones
    with a default.  The constructor (positional or keyword), ``==``,
    ``hash``, ``repr``, pickling and :meth:`replace` all derive from that
    one field tuple.
    """

    def __init__(self, *args, **kwargs) -> None:
        fields, assign = self._fields, object.__setattr__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments")
        for name, value in zip(fields, args):
            assign(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs and name not in self._defaults:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            assign(self, name, kwargs.pop(name) if name in kwargs else self._defaults[name])
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected {sorted(kwargs)}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: AST nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: AST nodes are immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return (self.__class__, self._values(self))

    def field_values(self) -> tuple:
        """The node's field values, in field order."""
        return self._values(self)

    def replace(self, **changes) -> "Node":
        """A copy with some fields changed (``dataclasses.replace`` for nodes)."""
        values = dict(zip(self._fields, self._values(self)))
        unknown = set(changes) - values.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field(s) {sorted(unknown)}")
        values.update(changes)
        return self.__class__(**values)


# ---------------------------------------------------------------------------
# Operands: literals, domain references, the pipeline context variable
# ---------------------------------------------------------------------------


class Literal(Node):
    value: Union[str, int, float]


class DomainRef(Node):
    """A configuration notation, e.g. ``Fabric::$CloudName.TenantName``.

    ``notation`` is the raw text (without the leading ``$``); it is parsed
    into a :class:`~repro.repository.keys.KeyPattern` at evaluation time,
    after variable substitution.
    """

    notation: str


class ContextRef(Node):
    """``$_`` — the value flowing through the current pipeline step."""


Operand = Union[Literal, DomainRef, ContextRef]


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class CompartmentDomain(Node):
    """Inline compartment: ``#[Datacenter] $Machinepool.FillFactor#``."""

    compartment: str
    inner: "DomainExpr"


class BinOpDomain(Node):
    """Arithmetic over the Cartesian product of two domains (§4.2.1)."""

    op: str  # + - * /
    left: "DomainExpr"
    right: "DomainExpr"


class TransformDomain(Node):
    """Prefix transformation style: ``lower($OSPath)``."""

    name: str
    args: tuple[Operand, ...]
    inner: "DomainExpr"


class UnionDomain(Node):
    """``$s.k1,$s.k2`` — several domains validated together.

    Produced by the compiler's domain-aggregation rewrite (paper Figure 4b);
    the concrete syntax also accepts comma-separated domains at statement
    level.
    """

    members: tuple["DomainExpr", ...]


DomainExpr = Union[
    DomainRef, CompartmentDomain, BinOpDomain, TransformDomain, UnionDomain
]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class And(Node):
    left: "PredExpr"
    right: "PredExpr"


class Or(Node):
    left: "PredExpr"
    right: "PredExpr"


class Not(Node):
    operand: "PredExpr"


class Quantified(Node):
    """``exists p`` / ``forall p`` / ``one p`` (∃ / ∀ / ∃!)."""

    quantifier: str  # "exists" | "forall" | "one"
    operand: "PredExpr"


class IfPred(Node):
    """``if (r) s [else t]`` — (r → s) ∧ (¬r → t)."""

    condition: "PredExpr"
    then: "PredExpr"
    otherwise: Optional["PredExpr"] = None


class PrimitiveCall(Node):
    """A named predicate primitive, with optional arguments.

    Bare primitives (``int``, ``nonempty``) have empty ``args``; call-style
    primitives carry literals or domain operands (``match('.vhd$')``).
    """

    name: str
    args: tuple[Operand, ...] = ()


class RangePred(Node):
    """``[low, high]`` — inclusive range with literal or domain bounds."""

    low: Operand
    high: Operand


class SetPred(Node):
    """``{a, b, $Domain}`` — membership in literals and/or domain values."""

    members: tuple[Operand, ...]


class RelPred(Node):
    """``== x`` / ``<= $Other`` applied to the value under test."""

    op: str
    operand: Operand


class MacroRef(Node):
    """``@UniqueCIDR`` — reference to a ``let`` macro."""

    name: str


PredExpr = Union[
    And, Or, Not, Quantified, IfPred, PrimitiveCall, RangePred, SetPred, RelPred,
    MacroRef,
]


# ---------------------------------------------------------------------------
# Pipeline steps (§4.2.3)
# ---------------------------------------------------------------------------


class TransformStep(Node):
    name: str
    args: tuple[Operand, ...] = ()


class TupleStep(Node):
    """``[at(0), at(1)]`` — build a list by applying each transform to $_."""

    parts: tuple[TransformStep, ...]


class ForeachStep(Node):
    """``foreach($MachinePool::$_.LoadBalancer.VipRanges)`` — re-query a
    domain per current value, substituting ``$_``."""

    domain: DomainRef


class CondStep(Node):
    """``if (nonempty) split('-')`` — predicated transformation."""

    condition: "PredExpr"
    then: "Step"
    otherwise: Optional["Step"] = None


class PredicateStep(Node):
    """The terminal step: the constraint itself."""

    predicate: "PredExpr"


Step = Union[TransformStep, TupleStep, ForeachStep, CondStep, PredicateStep]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class SpecStatement(Node):
    """``domain -> step -> … -> predicate`` — one validation specification.

    ``custom_message`` overrides the auto-generated error message for every
    violation of this spec (paper §4.4: "we also allow overriding this
    default error message for an individual check"); written
    ``$K -> int !! 'Timeout must be a number'``.  ``{key}`` and ``{value}``
    placeholders are substituted.
    """

    domain: DomainExpr
    steps: tuple[Step, ...]
    text: str = ""
    line: int = 0
    custom_message: str = ""


class ConditionSpec(Node):
    """A specification used as a boolean (inside ``if (...)``).

    Holds either a full mini-spec (domain + steps) or a bare predicate to
    test against no domain (rare).  Truth = the spec passes.
    """

    spec: SpecStatement


class LoadCmd(Node):
    alias: str
    location: str
    scope: str = ""
    line: int = 0


class IncludeCmd(Node):
    path: str
    line: int = 0


class LetCmd(Node):
    name: str
    predicate: PredExpr
    line: int = 0


class GetCmd(Node):
    domain: DomainExpr
    line: int = 0


class NamespaceBlock(Node):
    """``namespace r.s { … }`` — notation-prefix resolution (§4.2.2)."""

    names: tuple[str, ...]  # one or more namespaces, tried in order
    body: tuple["Statement", ...]
    line: int = 0


class CompartmentBlock(Node):
    """``compartment Cluster { … }`` — per-instance isolated evaluation."""

    name: str
    body: tuple["Statement", ...]
    line: int = 0


class IfStatement(Node):
    """Statement-level conditional validation (paper Listing 5)."""

    condition: ConditionSpec
    then: tuple["Statement", ...]
    otherwise: tuple["Statement", ...] = ()
    line: int = 0


Statement = Union[
    LoadCmd,
    IncludeCmd,
    LetCmd,
    GetCmd,
    NamespaceBlock,
    CompartmentBlock,
    IfStatement,
    SpecStatement,
]


class Program(Node):
    statements: tuple[Statement, ...]


def walk(node) -> Iterator[Node]:
    """Every node of a subtree, depth-first (lists and tuples are flattened)."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (list, tuple)):
            stack.extend(current)
        elif isinstance(current, Node):
            yield current
            stack.extend(current._values(current))


def notations(node) -> Iterator[str]:
    """Every configuration notation text inside a subtree."""
    for current in walk(node):
        if isinstance(current, DomainRef):
            yield current.notation
