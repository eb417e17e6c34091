"""Editor integration: validate configuration data as it is edited.

Paper §5.1, scenario 1: "we extend configuration editors to support CPL
specifications and perform validation as configuration data is edited.  The
instant feedback can help correct simple errors (e.g., incorrect type or
format) before the wrong data is committed."

:class:`EditorValidator` is the editor-agnostic core of that scenario:

* it compiles a CPL corpus once and re-runs it on every buffer update,
* parse failures of the *buffer* surface as diagnostics, not exceptions,
* violations are mapped back to buffer line numbers (best-effort textual
  location of the offending parameter and value),
* unchanged buffers are not re-validated (content-hash cache).

:func:`check_spec_text` covers the complementary direction — live syntax
feedback while editing the *specification* file itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..core.session import ValidationSession
from ..cpl import ast, parse
from ..drivers import get_driver
from ..errors import ConfValleyError, CPLSyntaxError, DriverError
from ..repository.store import ConfigStore
from ..runtime import RuntimeProvider

__all__ = ["Diagnostic", "EditorValidator", "check_spec_text"]


@dataclass(frozen=True)
class Diagnostic:
    """One editor annotation: a line, a severity, a message."""

    line: int               # 1-based; 0 = whole buffer
    severity: str           # "error" | "warning"
    message: str
    key: str = ""           # offending configuration key, when known

    def render(self) -> str:
        location = f"line {self.line}" if self.line else "buffer"
        return f"{location}: {self.severity}: {self.message}"


class EditorValidator:
    """Re-validates one configuration buffer against a fixed CPL corpus."""

    def __init__(
        self,
        spec_text: str,
        format_name: str,
        scope: str = "",
        runtime: Optional[RuntimeProvider] = None,
        context_store: Optional[ConfigStore] = None,
    ):
        """``context_store`` optionally supplies the *rest* of the fleet's
        configuration, so cross-source specs keep working while one file is
        edited."""
        self._statements = parse(spec_text).statements  # fail fast on bad specs
        self._spec_text = spec_text
        self._format = format_name
        self._scope = scope
        self._runtime = runtime
        self._context = list(context_store.instances()) if context_store else []
        self._last_hash: Optional[str] = None
        self._last_diagnostics: list[Diagnostic] = []
        self.validations_run = 0

    # ------------------------------------------------------------------

    def update(self, buffer_text: str) -> list[Diagnostic]:
        """Validate the current buffer contents; returns diagnostics.

        Repeated calls with identical text return the cached result without
        re-validating (the editor calls this on every keystroke batch).
        """
        digest = hashlib.sha256(buffer_text.encode("utf-8")).hexdigest()
        if digest == self._last_hash:
            return self._last_diagnostics
        diagnostics = self._validate(buffer_text)
        self._last_hash = digest
        self._last_diagnostics = diagnostics
        return diagnostics

    # ------------------------------------------------------------------

    def _validate(self, buffer_text: str) -> list[Diagnostic]:
        self.validations_run += 1
        driver = get_driver(self._format)
        try:
            instances = driver.parse(buffer_text, source="<buffer>", scope=self._scope)
        except DriverError as error:
            return [Diagnostic(_line_of_error(str(error)), "error", str(error))]
        store = ConfigStore()
        store.add_all(self._context)
        store.add_all(instances)
        session = ValidationSession(store=store, runtime=self._runtime)
        try:
            report = session.validate_statements(list(self._statements))
        except ConfValleyError as error:
            return [Diagnostic(0, "error", str(error))]
        out = []
        for violation in report.violations:
            line = _locate(buffer_text, violation.key, violation.value)
            out.append(
                Diagnostic(line, "error", violation.message, key=violation.key)
            )
        return out


def _locate(buffer_text: str, key_text: str, value: str) -> int:
    """Best-effort mapping of a violation back to a buffer line.

    Drivers do not track source positions, so we search for the offending
    parameter name — preferring a line that also contains the offending
    value — which is exact for line-oriented formats (INI, key-value) and a
    close hint for XML.
    """
    leaf = key_text.rsplit(".", 1)[-1].split("::")[0].split("[")[0]
    if not leaf:
        return 0
    candidate = 0
    for number, line in enumerate(buffer_text.splitlines(), start=1):
        if leaf in line:
            if value and value in line:
                return number
            if candidate == 0:
                candidate = number
    return candidate


def _line_of_error(message: str) -> int:
    """Extract ``:N:`` line info that drivers embed in their messages."""
    import re

    match = re.search(r":(\d+):", message)
    return int(match.group(1)) if match else 0


def check_spec_text(spec_text: str) -> list[Diagnostic]:
    """Live feedback while editing a CPL specification file.

    Reports syntax errors (with position) and two semantic lints the
    evaluator would only hit at run time: references to undefined macros
    and unknown predicate primitives.
    """
    try:
        program = parse(spec_text)
    except CPLSyntaxError as error:
        return [Diagnostic(error.line, "error", error.message)]

    from ..predicates import is_registered

    defined_macros: set[str] = set()
    diagnostics: list[Diagnostic] = []

    def walk_predicates(node, line):
        for current in ast.walk(node):
            if isinstance(current, ast.MacroRef) and current.name not in defined_macros:
                diagnostics.append(
                    Diagnostic(line, "error", f"undefined macro @{current.name}")
                )
            elif isinstance(current, ast.PrimitiveCall) and not is_registered(current.name):
                diagnostics.append(
                    Diagnostic(line, "error", f"unknown predicate {current.name!r}")
                )

    def walk_statements(statements):
        for statement in statements:
            line = getattr(statement, "line", 0)
            if isinstance(statement, ast.LetCmd):
                walk_predicates(statement.predicate, line)
                defined_macros.add(statement.name)
            elif isinstance(statement, ast.SpecStatement):
                walk_predicates(statement.steps, line)
            elif isinstance(statement, (ast.NamespaceBlock, ast.CompartmentBlock)):
                walk_statements(statement.body)
            elif isinstance(statement, ast.IfStatement):
                walk_predicates(statement.condition.spec.steps, line)
                walk_statements(statement.then)
                walk_statements(statement.otherwise)

    walk_statements(program.statements)
    return diagnostics
