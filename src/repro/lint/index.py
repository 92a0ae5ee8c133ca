"""Content-hash cache of per-file lint results for incremental runs.

``repro lint`` (DESIGN.md §12) parses every file once and runs the rule
pack over it. That result depends only on the file's bytes and the
active rule pack — so it is cached here.

The cache file (``.lint_cache.json`` by default, git-ignored) maps each
display path to ``{sha, rules_key, findings}``. A file whose content
hash and rules key match is never re-parsed: its findings (already
filtered by inline suppressions, carrying their baseline fingerprints)
come from the cache. Any mismatch — edited file, different rule subset,
bumped ``CACHE_SCHEMA`` — recomputes that file alone. Writes are atomic
(temp file + rename) so concurrent lint runs can only ever see a
complete cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Optional

#: Bump to invalidate every cached entry (finding shape change).
CACHE_SCHEMA = 1

#: Default cache filename, resolved against the working directory.
DEFAULT_CACHE = ".lint_cache.json"


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def line_hash(line: str) -> str:
    """Content fingerprint of one source line (location-independent)."""
    return hashlib.sha1(line.strip().encode("utf-8")).hexdigest()[:12]


def line_hashes(source: str) -> list[str]:
    return [line_hash(line) for line in source.splitlines()]


_ANALYZER_FINGERPRINT: Optional[str] = None


def analyzer_fingerprint() -> str:
    """Content hash of the lint package's own sources.

    Folded into every cache key so upgrading the analyzer (new rule
    logic, changed finding shape) invalidates stale entries without
    anyone remembering to bump :data:`CACHE_SCHEMA` by hand.
    """
    global _ANALYZER_FINGERPRINT
    if _ANALYZER_FINGERPRINT is None:
        root = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.sha1()
        for name in sorted(os.listdir(root)):
            if not name.endswith(".py"):
                continue
            digest.update(name.encode("utf-8"))
            try:
                with open(os.path.join(root, name), "rb") as handle:
                    digest.update(handle.read())
            except OSError:
                continue
        _ANALYZER_FINGERPRINT = digest.hexdigest()[:12]
    return _ANALYZER_FINGERPRINT


def rules_key(rule_names: list[str]) -> str:
    """Cache key component: active rule pack + analyzer version."""
    joined = ",".join(sorted(rule_names)) + "@" + analyzer_fingerprint()
    return hashlib.sha1(joined.encode("utf-8")).hexdigest()[:12]


class LintCache:
    """Content-hash-keyed store of per-file lint results."""

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self.files: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        if path is not None and os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                payload = None  # unreadable cache: start fresh
            if (
                isinstance(payload, dict)
                and payload.get("schema") == CACHE_SCHEMA
                and isinstance(payload.get("files"), dict)
            ):
                self.files = payload["files"]

    def lookup(
        self, display: str, sha: str, key: str
    ) -> Optional[dict[str, Any]]:
        # Entries key on (path, rule pack) so runs with different rule
        # subsets (check_no_print.sh vs the full pack) never thrash each
        # other's cache.
        entry = self.files.get(f"{display}|{key}")
        if (
            entry is not None
            and entry.get("sha") == sha
            and entry.get("rules_key") == key
        ):
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, display: str, key: str, entry: dict[str, Any]) -> None:
        self.files[f"{display}|{key}"] = entry
        self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        payload = {"schema": CACHE_SCHEMA, "files": self.files}
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            fd, temp_path = tempfile.mkstemp(
                prefix=".lint_cache.", suffix=".tmp", dir=directory
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(temp_path, self.path)
        except OSError:
            return  # read-only checkout: caching is best-effort only
