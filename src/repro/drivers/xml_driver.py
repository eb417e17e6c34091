"""Generic XML settings driver (paper Listing 1, Table 2 row 1).

Parses hierarchical XML of the Azure-style shape::

    <CloudGroup Name="East1 Production">
      <Setting Key="MonitorNodeHealth" Value="True"/>
      <Cloud Name="East1Storage1">
        <Tenant Type="A">
          <Setting Key="MonitorNodeHealth" Value="False"/>
        </Tenant>
      </Cloud>
    </CloudGroup>

Mapping rules:

* every non-``Setting`` element is a scope segment; its named qualifier is
  taken from a ``Name``/``Type``/``Id`` attribute when present, otherwise the
  1-based sibling index among same-tag siblings becomes its ordinal;
* ``<Setting Key="K" Value="V"/>`` becomes parameter ``K = V`` under the
  enclosing scope path — this realizes the paper's tree-path extraction
  (``CloudGroup.Cloud.MonitorNodeHealth``);
* other attributes of scope elements (besides the qualifier attribute)
  become parameters of that scope;
* leaf elements with text content become parameters named after the tag.

**Inheritance expansion** (``expand_inheritance=True``): paper Listing 1
notes that "``MonitorNodeHealth`` is inherited by all ``Tenant`` scopes, some
of which override the value".  With expansion on, every setting defined at an
inner scope is materialized once per *leaf* scope beneath it, with the
nearest definition along the path winning.  This is what produces the
paper's high instance:class ratios (80:1 – 14,000:1) and is how the
synthetic Azure generator replays Figure 1's duplicate-and-customize shape.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field

from ..errors import DriverError
from ..repository.keys import InstanceKey, InstanceSegment, segment
from ..repository.model import ConfigInstance
from .base import Driver, register_driver, scope_segments

__all__ = ["XMLDriver"]

_NAME_ATTRS = ("Name", "name", "Type", "type", "Id", "id")
_SETTING_TAGS = {"Setting", "setting", "Parameter", "parameter", "Property", "property"}
_KEY_ATTRS = ("Key", "key", "Name", "name")
_VALUE_ATTRS = ("Value", "value")


@dataclass
class _ScopeNode:
    """Internal scope tree used for inheritance expansion."""

    segment: InstanceSegment | None  # None for the synthetic root
    settings: dict[str, str] = field(default_factory=dict)
    attributes: dict[str, str] = field(default_factory=dict)
    children: list["_ScopeNode"] = field(default_factory=list)


class XMLDriver(Driver):
    format_name = "xml"

    def parse(
        self,
        text: str,
        source: str = "",
        scope: str = "",
        expand_inheritance: bool = False,
    ) -> list[ConfigInstance]:
        # Multiple root elements are common in config fragments (paper
        # Listing 1 has two CloudGroup roots); wrap before parsing.
        try:
            element = ET.fromstring(f"<__root__>{text}</__root__>")
        except ET.ParseError as exc:
            raise DriverError(f"malformed XML in {source or '<string>'}: {exc}") from exc
        tree = self._build_tree(element)
        prefix = scope_segments(scope)
        out: list[ConfigInstance] = []
        if expand_inheritance:
            self._emit_expanded(tree, prefix, {}, source, out)
        else:
            self._emit_raw(tree, prefix, source, out)
        return out

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------

    def _build_tree(self, element: ET.Element) -> _ScopeNode:
        root = _ScopeNode(None)
        self._fill_node(element, root, is_root=True)
        return root

    def _fill_node(self, element: ET.Element, node: _ScopeNode, is_root: bool) -> None:
        if not is_root:
            qualifier_attr = self._qualifier_attr(element)
            for attr, value in element.attrib.items():
                if attr != qualifier_attr:
                    node.attributes[attr] = value
        ordinals: Counter[str] = Counter()
        for child in element:
            tag = child.tag
            if tag in _SETTING_TAGS:
                key, value = self._setting_pair(child)
                node.settings[key] = value
                continue
            ordinals[tag] += 1
            child_node = _ScopeNode(segment(tag, self._qualifier(child), ordinals[tag]))
            node.children.append(child_node)
            if len(child) == 0 and not child.attrib and child.text and child.text.strip():
                # Leaf element with bare text: treat the tag as a parameter of
                # the *enclosing* scope rather than a nested scope.
                node.children.pop()
                node.settings[tag] = child.text.strip()
                continue
            self._fill_node(child, child_node, is_root=False)

    def _qualifier(self, element: ET.Element) -> str | None:
        for attr in _NAME_ATTRS:
            if attr in element.attrib:
                return element.attrib[attr]
        return None

    def _qualifier_attr(self, element: ET.Element) -> str | None:
        for attr in _NAME_ATTRS:
            if attr in element.attrib:
                return attr
        return None

    def _setting_pair(self, element: ET.Element) -> tuple[str, str]:
        key = None
        for attr in _KEY_ATTRS:
            if attr in element.attrib:
                key = element.attrib[attr]
                break
        if key is None:
            raise DriverError(f"<{element.tag}> element without a Key attribute")
        for attr in _VALUE_ATTRS:
            if attr in element.attrib:
                return key, element.attrib[attr]
        if element.text and element.text.strip():
            return key, element.text.strip()
        return key, ""

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit_raw(
        self,
        node: _ScopeNode,
        prefix: tuple[InstanceSegment, ...],
        source: str,
        out: list[ConfigInstance],
    ) -> None:
        path = prefix if node.segment is None else prefix + (node.segment,)
        for key, value in {**node.attributes, **node.settings}.items():
            out.append(
                ConfigInstance(InstanceKey(path + (segment(key),)), value, source)
            )
        for child in node.children:
            self._emit_raw(child, path, source, out)

    def _emit_expanded(
        self,
        node: _ScopeNode,
        prefix: tuple[InstanceSegment, ...],
        inherited: dict[str, str],
        source: str,
        out: list[ConfigInstance],
    ) -> None:
        path = prefix if node.segment is None else prefix + (node.segment,)
        effective = {**inherited, **node.settings}
        # Attributes are identity-like (never inherited): emit at their scope.
        for key, value in node.attributes.items():
            out.append(
                ConfigInstance(InstanceKey(path + (segment(key),)), value, source)
            )
        if node.children:
            for child in node.children:
                self._emit_expanded(child, path, effective, source, out)
        else:
            for key, value in effective.items():
                out.append(
                    ConfigInstance(
                        InstanceKey(path + (segment(key),)), value, source
                    )
                )


register_driver(XMLDriver())
