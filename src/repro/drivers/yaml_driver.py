"""YAML driver (paper §4.2.2: "some use standard INI or YAML format").

Uses :mod:`yaml` (safe loader) for parsing and the shared mapping walker for
scope extraction, so YAML and JSON sources produce identical unified keys
for structurally identical data.

Multi-document streams (k8s-style ``---`` separators) parse into distinct
compartment scopes rather than silently taking the first document: each
document is wrapped in its own scope segment, named after its ``kind`` with
``metadata.name`` as the instance qualifier when present (the Kubernetes
convention), or an ordinal ``doc`` segment otherwise::

    kind: Deployment
    metadata: {name: frontend}
    replicas: 2
    ---
    kind: Service
    metadata: {name: frontend}
    port: 8080

yields ``Deployment::frontend.replicas`` and ``Service::frontend.port``.
A single-document stream is parsed exactly as before — no wrapping — so
existing sources keep their unified keys (and report fingerprints) intact.
"""

from __future__ import annotations

from ..errors import DriverError
from .base import Driver, register_driver, scope_segments, walk_mapping
from ..repository.keys import InstanceSegment
from ..repository.model import ConfigInstance

__all__ = ["YAMLDriver"]


class YAMLDriver(Driver):
    format_name = "yaml"

    def parse(self, text: str, source: str = "", scope: str = "") -> list[ConfigInstance]:
        import yaml  # only YAML sources pay for it

        try:
            documents = [doc for doc in yaml.safe_load_all(text) if doc is not None]
        except yaml.YAMLError as exc:
            raise DriverError(f"malformed YAML in {source or '<string>'}: {exc}") from exc
        prefix = scope_segments(scope)
        if not documents:
            return []
        if len(documents) == 1:
            return self._parse_document(documents[0], prefix, source)
        out: list[ConfigInstance] = []
        for ordinal, document in enumerate(documents, start=1):
            out.extend(
                self._parse_document(
                    document,
                    prefix + (self._document_segment(document, ordinal),),
                    source,
                )
            )
        return out

    @staticmethod
    def _parse_document(document, prefix, source) -> list[ConfigInstance]:
        if not isinstance(document, (dict, list)):
            raise DriverError("top-level YAML must be a mapping or sequence")
        return walk_mapping(
            document if isinstance(document, dict) else {"Item": document},
            prefix,
            source,
        )

    @staticmethod
    def _document_segment(document, ordinal: int) -> InstanceSegment:
        """Scope segment for one document of a multi-document stream."""
        if isinstance(document, dict):
            kind = document.get("kind")
            if isinstance(kind, str) and kind:
                metadata = document.get("metadata")
                name = metadata.get("name") if isinstance(metadata, dict) else None
                if isinstance(name, str) and name:
                    return InstanceSegment(kind, name)
                return InstanceSegment(kind, None, ordinal)
        return InstanceSegment("doc", None, ordinal)


register_driver(YAMLDriver())
