"""Change sets between configuration states.

The paper motivates validation "before checking-in to the repository"
(§3.2): a candidate configuration is compared with the one it replaces,
and only what the change can reach is re-validated.  This module provides
the comparison:

* :class:`ChangeSet` — added / removed / modified instances between two
  configuration states, the input to incremental validation
  (:mod:`repro.core.incremental`);
* :func:`diff_stores` — the change set between two
  :class:`~repro.repository.store.ConfigStore` instances.  The delta
  scanner (:class:`repro.service.DeltaScanner`) diffs the store it
  retained against the one it just rebuilt; ``mode: delta`` jobs and
  ``confvalley gate`` diff a baseline store against the candidate.

The check-in workflow end to end — build the baseline and candidate
stores, diff them, hand the change set to incremental validation::

    >>> from repro.repository.keys import InstanceKey
    >>> from repro.repository.model import ConfigInstance
    >>> from repro.repository.store import ConfigStore
    >>> def inst(key, value):
    ...     return ConfigInstance(InstanceKey.build(*key.split(".")), value)
    >>> old, new = ConfigStore(), ConfigStore()
    >>> old.add_all([inst("fabric.Timeout", "30")])
    >>> new.add_all([inst("fabric.Timeout", "45"), inst("fabric.Mode", "fast")])
    >>> change = diff_stores(old, new)
    >>> change.summary()
    '+1 -0 ~1 instance(s), 2 class(es) touched'
    >>> [key.render() for key in change.touched_keys()]
    ['fabric.Mode', 'fabric.Timeout']
    >>> diff_stores(None, old).summary()     # no baseline: everything added
    '+1 -0 ~0 instance(s), 1 class(es) touched'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .keys import InstanceKey
from .model import ConfigInstance
from .store import ConfigStore

__all__ = ["ChangeSet", "diff_stores"]


@dataclass
class ChangeSet:
    """Difference between two configuration states (old → new)."""

    added: list[ConfigInstance] = field(default_factory=list)
    removed: list[ConfigInstance] = field(default_factory=list)
    modified: list[tuple[ConfigInstance, ConfigInstance]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.modified)

    def touched_keys(self) -> list[InstanceKey]:
        """Every instance key involved in this change."""
        keys = [instance.key for instance in self.added]
        keys += [instance.key for instance in self.removed]
        keys += [new.key for __, new in self.modified]
        return keys

    def touched_classes(self) -> set[tuple[str, ...]]:
        return {key.class_key for key in self.touched_keys()}

    def summary(self) -> str:
        return (
            f"+{len(self.added)} -{len(self.removed)} "
            f"~{len(self.modified)} instance(s), "
            f"{len(self.touched_classes())} class(es) touched"
        )


def diff_stores(old: Optional[ConfigStore], new: ConfigStore) -> ChangeSet:
    """Change set taking ``old`` to ``new`` (``old=None``: everything added)."""
    change = ChangeSet()
    old_by_key = {i.key: i for i in (old.instances() if old else ())}
    new_by_key = {i.key: i for i in new.instances()}
    for key, instance in new_by_key.items():
        previous = old_by_key.get(key)
        if previous is None:
            change.added.append(instance)
        elif previous.value != instance.value:
            change.modified.append((previous, instance))
    for key, instance in old_by_key.items():
        if key not in new_by_key:
            change.removed.append(instance)
    return change
