"""Lowered evaluation and the regex lexer against their reference oracles.

``tests/oracles`` keeps the tree-walking interpreter and the character-loop
lexer that ``repro.core.evaluator`` and ``repro.cpl.lexer`` replaced.  Here
seeded random CPL programs run through both evaluators over small synthetic
Type A/B/C stores and must give byte-identical reports (fingerprint, health
errors, per-spec counters, policy callbacks), guarded and unguarded; and
both lexers must give identical token streams for every committed CPL text
and a seeded sample of random inputs.
"""

from __future__ import annotations

import ast as pyast
import glob
import os
import random

import pytest

from repro.core import evaluator as lowered
from repro.core.compiler import optimize_statements
from repro.core.policy import ValidationPolicy
from repro.core.report import ValidationReport
from repro.cpl import parse, tokenize
from repro.errors import ConfValleyError, CPLSyntaxError
from repro.parallel.engine import ParallelValidator
from repro.resilience import SpecGuard
from repro.runtime import StaticRuntime
from repro.synthetic import generate_type_a, generate_type_b, generate_type_c

from .oracles import char_lexer, interpreter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# Lexer: token streams
# ---------------------------------------------------------------------------


def _lex(tokenizer, text):
    try:
        return [(t.type, t.value, t.line, t.column) for t in tokenizer(text)]
    except CPLSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _committed_cpl() -> list[str]:
    from repro import InferenceEngine
    from repro.cpl.stdlib import STDLIB_CPL
    from repro.synthetic import CLOUDSTACK_SPECS, EXPERT_SPECS, OPENSTACK_SPECS

    texts = [STDLIB_CPL, *EXPERT_SPECS.values(), OPENSTACK_SPECS, CLOUDSTACK_SPECS]
    for generate, scale in ((generate_type_a, 0.02), (generate_type_b, 0.001),
                            (generate_type_c, 0.1)):
        texts.append(InferenceEngine().infer(generate(scale, seed=5).build_store()).to_cpl())
    # CPL embedded in the examples: every string constant in them
    examples = os.path.join(ROOT, "examples", "**")
    for path in sorted(glob.glob(os.path.join(examples, "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            tree = pyast.parse(handle.read())
        texts += [
            node.value for node in pyast.walk(tree)
            if isinstance(node, pyast.Constant) and isinstance(node.value, str)
        ]
    for path in sorted(glob.glob(os.path.join(examples, "*.yaml"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


def test_token_streams_match_on_committed_cpl():
    texts = _committed_cpl()
    assert len(texts) > 50
    for text in texts:
        assert _lex(tokenize, text) == _lex(char_lexer.tokenize, text), text[:200]


_LEX_PIECES = list("abcXY_*-09 \t\n.:$'\\\"[](){},@#+/&|~=!<>→∃∀≤≥%") + [
    "->", "::", "//", "/*", "*/", "$_", "exists", "if", "else", "namespace ",
    "'a b'", "$A::'x y'.B", "[3]", "[$v]", "1.5", ".5", "\n\n", "$A::'x\ny'",
    "'p\nq'", "/*\n*/", "\\'", "$a.$", "$a::$", "$a[$x-y]", "one", "\r",
    "$A::'x\\'y'.B", "$A::'p\\\\q'",
]


def test_token_streams_match_on_random_text():
    rng = random.Random(20)
    for __ in range(3000):
        text = "".join(rng.choice(_LEX_PIECES) for __ in range(rng.randint(0, 30)))
        assert _lex(tokenize, text) == _lex(char_lexer.tokenize, text), repr(text)


# ---------------------------------------------------------------------------
# Evaluator: random programs, lowered vs interpreted
# ---------------------------------------------------------------------------


class _Programs:
    """Random CPL programs over the names of one store."""

    PRIMITIVES = ("int", "nonempty", "ip", "bool", "string", "float", "path",
                  "match('^[a-m]')", "startswith('1')", "length(1, 12)",
                  "unique", "consistent", "order('asc')", "order('desc')",
                  "no_such_predicate")
    STEPS = ("split('.')", "lower", "trim", "at(0)", "len", "[at(0), at(1)]",
             "sort", "distinct", "first", "count",
             "if (nonempty) split('-') else trim", "if (int) lower")

    def __init__(self, rng: random.Random, store):
        self.rng = rng
        instances = list(store.instances())
        self.leaves = sorted({i.key.segments[-1].name for i in instances})
        self.scopes = sorted({s.name for i in instances for s in i.key.segments[:-1]})
        self.classes = sorted({
            ".".join(i.key.class_key[-2:]) for i in instances if len(i.key.segments) > 1
        })
        values: dict[str, set] = {}
        for instance in instances:
            values.setdefault(instance.key.segments[-1].name, set()).add(instance.value)
        # variables bind over a leaf's distinct values: keep the pools small
        self.variables = sorted(name for name, found in values.items() if len(found) <= 3)
        self.values = sorted({i.value for i in instances})[:40] or ["x"]
        self.depth = 0
        self.in_let = False  # macro bodies name no macros: no cycles

    def pick(self, options):
        return self.rng.choice(options)

    def notation(self) -> str:
        roll = self.rng.random()
        if roll < 0.35:
            return "$" + self.pick(self.leaves)
        if roll < 0.65:
            return "$" + self.pick(self.classes)
        if roll < 0.75:
            return "$*" + self.pick(self.leaves)[1:4] + "*"
        if roll < 0.85 and self.variables:
            scope = self.pick(self.scopes)
            return f"${scope}::${self.pick(self.variables)}.{self.pick(self.leaves)}"
        if roll < 0.92:
            return "$NoSuchKey"
        return "$" + self.pick(self.scopes) + "." + self.pick(self.leaves)

    def domain(self) -> str:
        roll = self.rng.random()
        if roll < 0.7:
            return self.notation()
        if roll < 0.8:
            return f"#[{self.pick(self.scopes)}] {self.notation()}#"
        if roll < 0.87:
            return f"lower({self.notation()})"
        if roll < 0.93:
            return f"{self.notation()} + {self.notation()}"
        return f"{self.notation()}, {self.notation()}"

    def operand(self) -> str:
        roll = self.rng.random()
        if roll < 0.3:
            numbers = (0, 1, 3, 10, 64, 1024, 65535, 2.5, 1.0, 10.0, "'30s'")
            return str(self.rng.choice(numbers))
        if roll < 0.55:
            value = self.pick(self.values).replace("\\", "").replace("'", "")
            return f"'{value}'"
        if roll < 0.9:
            return self.notation()
        return "$_"

    def predicate(self) -> str:
        self.depth += 1
        try:
            roll = self.rng.random() if self.depth < 4 else self.rng.random() * 0.6
            if roll < 0.25:
                return self.pick(self.PRIMITIVES)
            if roll < 0.35:
                op = self.pick(("==", "!=", "<=", ">=", "<", ">"))
                return f"{op} {self.operand()}"
            if roll < 0.42:
                return f"[{self.operand()}, {self.operand()}]"
            if roll < 0.5:
                members = ", ".join(self.operand() for __ in range(self.rng.randint(1, 4)))
                return "{" + members + "}"
            if roll < 0.56 and not self.in_let:
                return "@" + self.pick(("M0", "M1", "M0", "M1", "Undefined"))
            if roll < 0.6:
                # an operand-level quantifier over a domain operand's tuples
                quantifier = self.pick(("exists", "one", "forall"))
                target = self.pick((
                    f"[{self.operand()}, {self.operand()}]",
                    f"<= {self.operand()}",
                    "{" + self.operand() + "}",
                ))
                return f"{quantifier} {target}"
            if roll < 0.7:
                return f"{self.predicate()} & {self.predicate()}"
            if roll < 0.8:
                return f"({self.predicate()} | {self.predicate()})"
            if roll < 0.87:
                return f"~{self.predicate()}"
            if roll < 0.93:
                otherwise = f" else {self.predicate()}" if self.rng.random() < 0.5 else ""
                return f"if ({self.predicate()}) {self.predicate()}{otherwise}"
            return f"{self.pick(('exists', 'one'))} {self.predicate()}"
        finally:
            self.depth -= 1

    def spec(self) -> str:
        steps = [self.pick(self.STEPS) for __ in range(self.rng.choice((0, 0, 0, 1, 2)))]
        if self.rng.random() < 0.05 and self.variables:
            steps.insert(0, f"foreach(${self.pick(self.scopes)}::$_.{self.pick(self.leaves)})")
        text = " -> ".join([self.domain(), *steps, self.predicate()])
        if self.rng.random() < 0.25:
            text += " !! '{key} is off ({value})'"
        return text

    def statements(self, count: int, nesting: int = 0) -> list[str]:
        out = []
        for __ in range(count):
            roll = self.rng.random()
            if roll < 0.15:
                self.in_let = True
                out.append(f"let {self.pick(('M0', 'M1'))} := {self.predicate()}")
                self.in_let = False
            elif roll < 0.25 and nesting < 2:
                body = "\n".join(self.statements(self.rng.randint(1, 3), nesting + 1))
                out.append(f"compartment {self.pick(self.scopes)} {{\n{body}\n}}")
            elif roll < 0.3 and nesting < 2:
                body = "\n".join(self.statements(self.rng.randint(1, 2), nesting + 1))
                out.append(f"namespace {self.pick(self.scopes)} {{\n{body}\n}}")
            elif roll < 0.37 and nesting < 2:
                then = "\n".join(self.statements(self.rng.randint(1, 2), nesting + 1))
                text = f"if ({self.domain()} -> {self.predicate()}) {{\n{then}\n}}"
                if self.rng.random() < 0.5:
                    text += " else {\n" + "\n".join(self.statements(1, nesting + 1)) + "\n}"
                out.append(text)
            elif roll < 0.4:
                out.append(f"get {self.notation()}")
            else:
                out.append(self.spec())
        return out


def _stores():
    return {
        "A": generate_type_a(0.01, seed=11).build_store(),
        "B": generate_type_b(0.0005, seed=12).build_store(),
        "C": generate_type_c(0.1, seed=13).build_store(),
    }


def _policy(log: list) -> ValidationPolicy:
    policy = ValidationPolicy(severities={"Port": "warning"}, on_violation=log.append)
    policy.suppress("*Port*")
    return policy


def _outcome(make_evaluator, statements, guarded: bool):
    log: list = []
    evaluator = make_evaluator(_policy(log), SpecGuard() if guarded else None)
    report = ValidationReport()
    try:
        evaluator.run(statements, report)
        error = None
    except ConfValleyError as exc:
        error = f"{type(exc).__name__}: {exc}"
    profile = {
        key: {name: value for name, value in row.items() if name != "seconds"}
        for key, row in report.spec_profile.items()
    }
    return (error, report.fingerprint(), report.health.spec_errors, profile,
            sorted(report.spec_timings), [v.to_dict() for v in log],
            sorted(evaluator.macros))


def _evaluators(store, cls):
    runtime = StaticRuntime(environment={"os": "Linux", "hostname": "h1"})

    def make(policy, guard):
        return cls(store, runtime, policy, profile=True, guard=guard, analytics=True)

    return make


@pytest.mark.parametrize("kind", ["A", "B", "C"])
def test_lowered_evaluation_matches_interpreter(kind):
    store = _stores()[kind]
    rng = random.Random(f"lowering-{kind}")
    programs = _Programs(rng, store)
    checked = 0
    for __ in range(40):
        lets = ["let M0 := int", "let M1 := ~nonempty"] if rng.random() < 0.7 else []
        text = "\n".join(lets + programs.statements(rng.randint(3, 9)))
        try:
            statements = list(parse(text).statements)
        except ConfValleyError:
            continue
        if rng.random() < 0.6:
            statements = optimize_statements(statements)
        for guarded in (False, True):
            expected = _outcome(_evaluators(store, interpreter.Evaluator), statements, guarded)
            got = _outcome(_evaluators(store, lowered.Evaluator), statements, guarded)
            assert got == expected, text
        checked += 1
    assert checked >= 30


_HAND_STORE = (
    ("Cluster::C1.StartIP", "10.0.0.1"), ("Cluster::C1.EndIP", "10.0.0.9"),
    ("Cluster::C1.Listen", "80"), ("Cluster::C1.Ratio", "1"), ("Cluster::C1.Mode", "fast"),
    ("Cluster::C1.Timeout", "30s"), ("Cluster::C1.Vip", "10.0.0.5-10.0.0.7"),
    ("Cluster::C2.StartIP", "10.0.1.9"), ("Cluster::C2.EndIP", "10.0.1.1"),
    ("Cluster::C2.Listen", "8080"), ("Cluster::C2.Ratio", "1.0"),
    ("Cluster::C2.Mode", " slow "),
    ("Cluster::C2.Timeout", "2m"), ("Cluster::C2.Vip", "10.0.2.5-10.0.2.7"),
    ("Cluster::C2.Rack::R1.Blade::1.Location", "3"),
    ("Cluster::C2.Rack::R1.Blade::2.Location", "3"),
    ("Cluster::C2.Rack::R2.Blade::1.Location", "x"),
    ("Limits.MaxListen", "8080"), ("Limits.Modes", "fast"), ("Limits.Modes", "slow"),
    ("Cluster::C1.AgentPort", "none"),  # its violations are waived by _policy
    ("Limits.Zero", "0"),
)

#: hand-written programs for what random ones reach too rarely: range and
#: set boundaries, numeric vs text equality, durations, addresses, inline
#: compartments with custom messages, aggregates with known offenders
_HAND_PROGRAMS = (
    "$Listen -> [80, 8080]\n$Listen -> [81, 8079]\n$Listen -> [80, $MaxListen]",
    "$Ratio -> {1.0, 'fast'}\n$Ratio -> == 1.0\n$Ratio -> {2}\n$Mode -> {'fast', 'slow', 3}",
    "$Mode -> {$Modes}\n$Mode -> == 'slow'\n$Mode -> != 'fast'",
    "$Timeout -> <= '1m'\n$Timeout -> [30, 120]\n$Timeout -> {'30s', 120}",
    "compartment Cluster {\n$StartIP <= $EndIP\n$Vip -> split('-') -> [$StartIP, $EndIP]\n}",
    "#[Cluster] $Listen# -> [100, 200] !! 'bad {key} = {value}'\n"
    "$Listen -> [100, 200] !! '{key}'",
    "#[Rack] $Location# -> unique\n$Location -> consistent\n$Location -> order('desc')",
    "$Location -> exists int\n$Location -> one == 3\n$Listen -> exists [$StartIP, $EndIP]",
    "$Listen -> one {80, $MaxListen}\n$Listen -> exists <= $MaxListen\n"
    "$Listen -> forall < $MaxListen",
    "compartment Cluster {\ncompartment Rack {\n$Location -> int !! 'rack {key}'\n}\n}",
    "if ($Mode -> {'fast'}) {\n$Listen -> == 80\n} else {\n$Listen -> == 8080\n}",
    "$Vip -> split('-') -> {'10.0.0.5', '10.0.2.5'}\n$AgentPort -> int & port",
    "$env.os -> == 'Linux'\n$Mode -> {$env.os, 'fast'}\n$Mode -> exists | reachable",
    "$Mode -> match($MaxListen)\n$Listen -> if (int) [1, $MaxListen] else nonempty",
    "$Listen - $Ratio -> <= 8079\n$Ratio + $Listen -> > 80\n$Mode + $Mode -> nonempty",
    "$Mode -> trim -> foreach($Cluster::$_.Listen) -> int\n"
    "$Mode -> [lower(), upper()] -> nonempty",
)

#: programs whose evaluation raises: unguarded runs stop there, guarded
#: runs record the error in the health block and go on
_HAND_ERROR_PROGRAMS = (
    "$Listen -> int\n$env.nope -> nonempty\n$Mode -> nonempty",
    "$Mode -> match($Modes)\n$Listen -> int",
    "$Mode -> concat($_) -> nonempty\n$Listen -> int",
    "$Mode - $Listen -> int\n$Listen / $Zero -> int",
    "$Listen -> @Undefined\n$NoSuchKey -> no_such_predicate\n"
    "#[Rack] $NoSuchKey# -> @Undefined",
)


def test_hand_written_programs_match_interpreter():
    from repro.repository import ConfigStore
    from repro.repository.model import ConfigInstance
    from repro.repository.keys import parse_instance_key

    store = ConfigStore()
    store.add_all(
        ConfigInstance(parse_instance_key(key), value, "hand") for key, value in _HAND_STORE
    )
    for text in _HAND_PROGRAMS + _HAND_ERROR_PROGRAMS:
        statements = list(parse(text).statements)
        for guarded in (False, True):
            expected = _outcome(_evaluators(store, interpreter.Evaluator), statements, guarded)
            got = _outcome(_evaluators(store, lowered.Evaluator), statements, guarded)
            assert got == expected, text
            failed = bool(expected[2]) if guarded else expected[0] is not None
            assert failed == (text in _HAND_ERROR_PROGRAMS), text


def test_shard_lets_and_redefined_macros_match_interpreter():
    """A shard receives earlier `let`s through its state; a macro redefined
    between two uses must bind where it does in the serial interpreter."""
    store = _stores()["A"]
    text = "\n".join([
        "let M0 := int",
        "$*Limit* -> @M0",
        "let M0 := ~int & nonempty",
        "$*Limit* -> @M0",
        "compartment Cluster {\n$StartIP -> @M0 | ip\n}",
        "let M0 := no_such_predicate",
        "$NoSuchKey -> @M0",
        "$*Port* -> @M0",
    ])
    statements = list(parse(text).statements)
    expected = _outcome(_evaluators(store, interpreter.Evaluator), statements, True)
    for executor in ("serial", "thread"):
        log: list = []
        report = ValidationReport()
        ParallelValidator(
            store, StaticRuntime(environment={"os": "Linux", "hostname": "h1"}),
            _policy(log), executor=executor, max_workers=2, guard=SpecGuard(),
        ).validate_statements(statements, report, macros={})
        assert report.fingerprint() == expected[1]
        assert report.health.spec_errors == expected[2]


# ---------------------------------------------------------------------------
# Work guard: how often one validate types a value
# ---------------------------------------------------------------------------

#: repro.typesys parse calls in one validate of the corpus below: 951 with
#: lowered checks (each value coerced once per check), 4,712 when every
#: compare re-typed both sides; the bound leaves 20% headroom
TYPESYS_CALL_BOUND = 1141


def test_validate_types_values_a_bounded_number_of_times(monkeypatch):
    from repro import InferenceEngine, ValidationSession, typesys
    from repro.synthetic import EXPERT_SPECS

    text = generate_type_a(0.05, seed=7).sources[0][1]
    session = ValidationSession()
    session.load_text("xml", text, source="a.xml")
    spec = EXPERT_SPECS["type_a"] + "\n" + InferenceEngine().infer(session.store).to_cpl()
    calls = []
    for name in dir(typesys):
        if name.startswith("parse_"):
            def counted(*args, _parse=getattr(typesys, name), **kwargs):
                calls.append(1)
                return _parse(*args, **kwargs)

            monkeypatch.setattr(typesys, name, counted)
    session = ValidationSession()
    session.load_text("xml", text, source="a.xml")
    report = session.validate(spec)
    assert report.passed and report.instances_checked > 0
    assert 0 < len(calls) <= TYPESYS_CALL_BOUND, len(calls)
