"""Public API hygiene: exports resolve, carry docstrings, version sane."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.cpl",
    "repro.predicates",
    "repro.transforms",
    "repro.repository",
    "repro.drivers",
    "repro.inference",
    "repro.lifecycle",
    "repro.runtime",
    "repro.console",
    "repro.synthetic",
    "repro.jobs",
    "repro.observability",
    "repro.parallel",
    "repro.resilience",
    "repro.workflows",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    module = importlib.import_module(package_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_listed_by_dir(package_name):
    module = importlib.import_module(package_name)
    assert set(module.__all__) <= set(dir(module))
    assert not hasattr(module, "no_such_export")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_star_import(package_name):
    module = importlib.import_module(package_name)
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_documented(package_name):
    module = importlib.import_module(package_name)
    assert module.__doc__ and module.__doc__.strip()


def test_top_level_classes_documented():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_version():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_public_entry_points_importable():
    from repro import (  # noqa: F401
        ChangeSet,
        ConfigRepository,
        ConfigStore,
        Evaluator,
        IncrementalValidator,
        InferenceEngine,
        ValidationPolicy,
        ValidationService,
        ValidationSession,
    )
    from repro.console import Console, EditorValidator, main  # noqa: F401
    from repro.core import analyze_coverage, suggest_repairs  # noqa: F401
    from repro.inference import combine, extract_constraints  # noqa: F401
    from repro.lifecycle import (  # noqa: F401
        LifecycleJournal,
        PromotionPolicy,
        ReInferencer,
        ShadowLane,
        SpecLifecycleManager,
        SpecRecord,
        SpecState,
        constraint_spec_id,
        fold,
    )


def test_cli_entry_point_help(capsys):
    from repro.console import build_parser

    parser = build_parser()
    for command in ("validate", "infer", "console", "service", "gate",
                    "coverage", "fmt", "specs"):
        assert command in parser.format_help()


def test_promotion_policy_doctests():
    """The lifecycle policy docstring is an executable state-machine spec."""
    import doctest

    import repro.lifecycle.policy as policy_module

    results = doctest.testmod(policy_module)
    assert results.attempted > 0
    assert results.failed == 0
