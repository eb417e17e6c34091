"""CSV driver: tabular configuration exports.

Header row gives parameter names; every data row becomes one ordinal record
scope (default name ``Record``, overridable by the ``scope`` argument's last
segment when it ends with ``[]``, e.g. ``scope="LoadBalancer[]"``).  When a
column is literally named ``Name`` its value becomes the record's named
qualifier — this matches how device inventories (e.g. load-balancer tables,
paper Listing 3) are exported.
"""

from __future__ import annotations

import csv
import io

from ..errors import DriverError
from ..repository.keys import InstanceKey, segment
from ..repository.model import ConfigInstance
from .base import Driver, register_driver, scope_segments

__all__ = ["CSVDriver"]


class CSVDriver(Driver):
    format_name = "csv"

    def parse(self, text: str, source: str = "", scope: str = "") -> list[ConfigInstance]:
        record_name = "Record"
        if scope.endswith("[]"):
            scope, __, record_name = scope[:-2].rpartition(".")
            if not record_name:
                raise DriverError("empty record scope")
        prefix = scope_segments(scope)
        reader = csv.reader(io.StringIO(text))
        try:
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
        except csv.Error as exc:
            raise DriverError(
                f"malformed CSV in {source or '<string>'}: {exc}"
            ) from exc
        if not rows:
            return []
        header = [cell.strip() for cell in rows[0]]
        name_column = header.index("Name") if "Name" in header else None
        out: list[ConfigInstance] = []
        for ordinal, row in enumerate(rows[1:], start=1):
            if len(row) != len(header):
                raise DriverError(
                    f"{source or '<string>'}: row {ordinal} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            qualifier = row[name_column].strip() if name_column is not None else None
            record = prefix + (segment(record_name, qualifier, ordinal),)
            for column, cell in zip(header, row):
                out.append(
                    ConfigInstance(
                        InstanceKey(record + (segment(column),)),
                        cell.strip(),
                        source,
                    )
                )
        return out


register_driver(CSVDriver())
