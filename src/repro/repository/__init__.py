"""Unified configuration representation, keys and discovery indexes."""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".keys": ("InstanceKey", "InstanceSegment", "KeyPattern", "PatternSegment",
              "parse_instance_key", "parse_pattern"),
    ".model": ("ConfigClass", "ConfigInstance"),
    ".naive": ("NaiveIndex",),
    ".store": ("ConfigStore",),
    ".trie": ("TrieIndex",),
    ".versioned": ("ChangeSet", "ConfigRepository", "Snapshot", "diff_stores"),
})
