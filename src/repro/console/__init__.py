"""Interactive console and batch CLI (paper §5.1 usage scenarios)."""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".cli": ("build_parser", "main"),
    ".editor": ("Diagnostic", "EditorValidator", "check_spec_text"),
    ".repl": ("Console",),
})
