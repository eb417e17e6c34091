"""Lazy package exports (PEP 562) from one table per package.

A package lists its public names once, grouped by the submodule that
defines them, and nothing is imported until a name is first read::

    __all__, __getattr__, __dir__ = _exports.exports(__name__, {
        ".store": ("ConfigStore",),
        ".keys": ("KeyPattern", "parse_pattern"),
    })

The first read of ``pkg.ConfigStore`` imports ``pkg.store`` and caches the
value on the package, so later reads are plain attribute lookups.  The
``"."`` row lists subpackages exported as themselves.  Names a package
defines or imports itself go in ``local`` so they stay in ``__all__``.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, table: dict, local: tuple = ()):
    """``(__all__, __getattr__, __dir__)`` for ``package`` from ``table``."""
    owners = {name: module for module, names in table.items() for name in names}
    public = [*local, *owners]

    def __getattr__(name):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(public))

    return public, __getattr__, __dir__
