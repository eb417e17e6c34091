"""Cross-store consistency checking (the ``cross_check`` step).

A single-store scan cannot see that a frontend's ``database.host`` and the
backend's actual bind address disagree, that a client references a service
nobody registered, or that a secret landed in a world-readable env file.
The :class:`CrossStoreChecker` evaluates a
:class:`~repro.workflows.rulepack.RulePack` across *named* stores:

* declarative kinds (``must_agree``, ``ref``, ``agree_port``, ``forbid``)
  run against a **merged, store-prefixed view** — every instance of store
  ``frontend`` reappears under the scope prefix ``frontend.…`` — built in
  sorted store order so violation order is deterministic;
* ``cpl`` rules get the full language against the same merged view, which
  is what makes cross-store CPL expressible at all: CPL's suffix-anchored
  domain matching means ``frontend.database.host`` addresses exactly the
  prefixed keys.

The checker emits ordinary :class:`~repro.core.report.Violation` objects
(constraint = the rule id) into a standard
:class:`~repro.core.report.ValidationReport`, so cross-store findings
merge into workflow verdicts, job results and gates like any other
violations.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Optional

from ..core.report import ValidationReport, Violation
from ..core.session import ValidationSession
from ..repository.keys import InstanceKey, segment
from ..repository.model import ConfigInstance
from ..repository.store import ConfigStore
from .rulepack import Rule, RulePack

__all__ = ["CrossStoreChecker", "extract_port"]

#: ``host:port``, ``scheme://host:port/path`` or a bare port
_PORT_PATTERN = re.compile(r"(?::(\d{1,5})(?:/|$))|(?:^(\d{1,5})$)")


def extract_port(value: str) -> Optional[int]:
    """The port a value names, or None when it does not name one."""
    match = _PORT_PATTERN.search(value.strip())
    if match is None:
        return None
    port = int(match.group(1) or match.group(2))
    return port if 0 < port < 65536 else None


class CrossStoreChecker:
    """Evaluates one rule pack across named configuration stores."""

    def __init__(
        self,
        pack: RulePack,
        stores: dict[str, ConfigStore],
        store_meta: Optional[dict] = None,
        spec_cache=None,
    ):
        self.pack = pack
        self.stores = dict(stores)
        self.store_meta = dict(store_meta or {})
        self.spec_cache = spec_cache
        self._merged: Optional[ConfigStore] = None

    def merged_store(self) -> ConfigStore:
        """All stores under their name prefixes, in sorted store order."""
        if self._merged is None:
            merged = ConfigStore()
            merged.add_all(
                ConfigInstance(
                    InstanceKey((segment(name),) + instance.key.segments),
                    instance.value,
                    instance.source,
                )
                for name in sorted(self.stores)
                for instance in self.stores[name].instances()
            )
            self._merged = merged
        return self._merged

    def check(self) -> ValidationReport:
        report = ValidationReport()
        for position, rule in enumerate(self.pack.rules, start=1):
            before = len(report.violations)
            runner = getattr(self, f"_check_{rule.kind}")
            runner(rule, position, report)
            report.specs_evaluated += 1
            if len(report.violations) > before:
                report.specs_failed += 1
        return report

    # -- shared helpers -------------------------------------------------

    def _violation(
        self, rule: Rule, position: int, key: str, value: str,
        message: str, source: str = "",
    ) -> Violation:
        return Violation(
            spec_text=f"rule {rule.id} ({rule.kind})",
            spec_line=position,
            constraint=rule.id,
            key=key,
            value=value,
            message=rule.message or message,
            severity=rule.severity,
            source=source,
        )

    def _matches(self, report: ValidationReport, *patterns) -> list:
        """Merged-store instances matched by the patterns, in pattern
        order then load order — the deterministic blame order."""
        merged = self.merged_store()
        out = []
        seen = set()
        for pattern in patterns:
            for instance in merged.query(pattern):
                if instance.key not in seen:
                    seen.add(instance.key)
                    out.append(instance)
        report.instances_checked += len(out)
        return out

    # -- rule kinds -----------------------------------------------------

    def _check_cpl(self, rule: Rule, position: int, report: ValidationReport) -> None:
        session = ValidationSession(
            store=self.merged_store(), spec_cache=self.spec_cache
        )
        sub = session.validate(rule.params["spec"])
        report.instances_checked += sub.instances_checked
        report.notes.extend(sub.notes)
        # the rule owns severity and attribution (constraint carries the
        # rule id, like every other kind); the evaluator's verdict stands
        report.extend(
            replace(violation, severity=rule.severity, constraint=rule.id)
            for violation in sub.violations
        )

    def _check_must_agree(
        self, rule: Rule, position: int, report: ValidationReport
    ) -> None:
        instances = self._matches(report, *rule.params["keys"])
        if len(instances) < 2:
            return
        reference = instances[0]
        for instance in instances[1:]:
            if instance.value != reference.value:
                report.add(
                    self._violation(
                        rule, position,
                        key=instance.key.render(),
                        value=instance.value,
                        message=(
                            f"{instance.key.render()} = {instance.value!r} "
                            f"disagrees with {reference.key.render()} = "
                            f"{reference.value!r}"
                        ),
                        source=instance.source,
                    )
                )

    def _check_ref(self, rule: Rule, position: int, report: ValidationReport) -> None:
        referenced = self._matches(report, rule.params["key"])
        targets = {
            instance.value
            for instance in self._matches(report, rule.params["target"])
        }
        for instance in referenced:
            if instance.value not in targets:
                report.add(
                    self._violation(
                        rule, position,
                        key=instance.key.render(),
                        value=instance.value,
                        message=(
                            f"{instance.key.render()} references "
                            f"{instance.value!r}, which no instance of "
                            f"{rule.params['target']!r} provides"
                        ),
                        source=instance.source,
                    )
                )

    def _check_agree_port(
        self, rule: Rule, position: int, report: ValidationReport
    ) -> None:
        instances = self._matches(report, *rule.params["keys"])
        reference = None
        for instance in instances:
            port = extract_port(instance.value)
            if port is None:
                continue  # no port embedded in this value — nothing to compare
            if reference is None:
                reference = (instance, port)
            elif port != reference[1]:
                report.add(
                    self._violation(
                        rule, position,
                        key=instance.key.render(),
                        value=instance.value,
                        message=(
                            f"{instance.key.render()} names port {port}, "
                            f"but {reference[0].key.render()} = "
                            f"{reference[0].value!r} names port {reference[1]}"
                        ),
                        source=instance.source,
                    )
                )

    def _check_forbid(self, rule: Rule, position: int, report: ValidationReport) -> None:
        params = rule.params
        name_pattern = (
            re.compile(params["name_match"], re.IGNORECASE)
            if params.get("name_match")
            else None
        )
        value_pattern = (
            re.compile(params["value_match"], re.IGNORECASE)
            if params.get("value_match")
            else None
        )
        equals = params.get("equals")
        when = params.get("when")
        for store_name in sorted(self.stores):
            if params.get("world_readable_only") and not self.store_meta.get(
                store_name, {}
            ).get("world_readable"):
                continue
            store = self.stores[store_name]
            if when is not None and not self._when_holds(store, when):
                continue
            if params.get("key"):
                candidates = store.query(params["key"])
            else:
                candidates = [
                    instance
                    for instance in store.instances()
                    if name_pattern.search(instance.key.render())
                ]
            report.instances_checked += len(candidates)
            for instance in candidates:
                if name_pattern is not None and params.get("key") and not (
                    name_pattern.search(instance.key.render())
                ):
                    continue
                if equals is not None and instance.value.lower() != str(equals).lower():
                    continue
                if value_pattern is not None and not value_pattern.search(
                    instance.value
                ):
                    continue
                rendered = f"{store_name}.{instance.key.render()}"
                report.add(
                    self._violation(
                        rule, position,
                        key=rendered,
                        value=instance.value,
                        message=f"forbidden configuration present: {rendered} "
                        f"= {instance.value!r}",
                        source=instance.source,
                    )
                )

    @staticmethod
    def _when_holds(store: ConfigStore, when: dict) -> bool:
        """A ``when`` condition: some instance of ``key`` equals ``equals``."""
        key = when.get("key", "")
        expected = str(when.get("equals", "")).lower()
        return any(
            instance.value.lower() == expected for instance in store.query(key)
        )
