"""Content-hash result cache for linter runs.

Two kinds of entries, matching the engine's two phases:

* **per-module** (``pm_<key>.json``) — the raw (pre-suppression)
  findings of the per-module rules plus the file's suppression table,
  keyed by the file's content hash and the module ruleset.  Sound
  because per-module results are a pure function of one file's bytes;
  whole-program rules are excluded by construction (their verdicts
  depend on every file).
* **flow** (``fl_<key>.json``) — the raw findings of the whole-program
  rules, keyed by the *tree signature*: the hash of every scanned file's
  (display, content-hash) pair.  Any edit anywhere changes the signature
  and recomputes the whole flow phase, which is exactly the soundness
  condition for interprocedural results.

Suppression matching and report assembly always happen fresh per run
(they are cheap and depend on run flags), so cached entries never
encode suppression state.

Entries are disposable artifacts: corrupt or unreadable files read as
misses and are rebuilt, and writes go through a temp file + ``os.replace``
so a crashed run never leaves a torn entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding
from .suppressions import Suppression

__all__ = ["CACHE_VERSION", "ModuleResult", "ResultCache", "tree_signature"]

#: Bump on any change to the entry format or the engine's raw-finding
#: semantics; old entries then read as misses instead of mis-parsing.
CACHE_VERSION = 1


@dataclass
class ModuleResult:
    """Per-module phase output for one file (the cacheable unit)."""

    display: str
    raw: list[Finding] = field(default_factory=list)
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    parse_ok: bool = True


def tree_signature(pairs: list[tuple[str, str]]) -> str:
    """Order-independent hash of ``(display, content_sha)`` pairs."""
    digest = hashlib.sha256()
    for display, sha in sorted(pairs):
        digest.update(display.encode("utf-8"))
        digest.update(b"\0")
        digest.update(sha.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _finding_to_dict(finding: Finding) -> dict[str, object]:
    return {"rule": finding.rule, "path": finding.path,
            "line": finding.line, "col": finding.col,
            "message": finding.message}


def _finding_from_dict(raw: dict[str, object]) -> Finding:
    return Finding(rule=str(raw["rule"]), path=str(raw["path"]),
                   line=int(raw["line"]),  # type: ignore[call-overload]
                   col=int(raw["col"]),  # type: ignore[call-overload]
                   message=str(raw["message"]))


class ResultCache:
    """Directory-backed cache with hit/miss counters."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # -- keys -----------------------------------------------------------------
    @staticmethod
    def module_key(display: str, content_sha: str, ruleset_sig: str) -> str:
        payload = f"{CACHE_VERSION}|{display}|{content_sha}|{ruleset_sig}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def flow_key(tree_sig: str, ruleset_sig: str) -> str:
        payload = f"{CACHE_VERSION}|flow|{tree_sig}|{ruleset_sig}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- I/O ------------------------------------------------------------------
    def _read(self, path: Path) -> dict[str, object] | None:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(document, dict) \
                or document.get("version") != CACHE_VERSION:
            return None
        return document

    def _write(self, path: Path, document: dict[str, object]) -> None:
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:  # repro: noqa RPF002 -- disposable cache artifact: corrupt/missing entries read as misses and are rebuilt, so no durability protocol applies
                json.dump(document, fh)
            os.replace(tmp, path)
        except OSError:
            # A full/read-only cache dir degrades to cacheless operation.
            tmp.unlink(missing_ok=True)

    # -- per-module entries ---------------------------------------------------
    def load_module(self, key: str) -> ModuleResult | None:
        document = self._read(self.root / f"pm_{key}.json")
        if document is None:
            self.misses += 1
            return None
        try:
            raw = [_finding_from_dict(f)
                   for f in document["findings"]]  # type: ignore[union-attr]
            suppressions = {
                int(s["line"]): Suppression(
                    line=int(s["line"]), rules=tuple(s["rules"]),
                    justification=str(s["justification"]))
                for s in document["suppressions"]}  # type: ignore[union-attr]
            result = ModuleResult(display=str(document["display"]),
                                  raw=raw, suppressions=suppressions,
                                  parse_ok=bool(document["parse_ok"]))
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store_module(self, key: str, result: ModuleResult) -> None:
        self._write(self.root / f"pm_{key}.json", {
            "version": CACHE_VERSION,
            "display": result.display,
            "parse_ok": result.parse_ok,
            "findings": [_finding_to_dict(f) for f in result.raw],
            "suppressions": [
                {"line": s.line, "rules": list(s.rules),
                 "justification": s.justification}
                for s in result.suppressions.values()],
        })

    # -- flow entries ---------------------------------------------------------
    def load_flow(self, key: str) -> list[Finding] | None:
        document = self._read(self.root / f"fl_{key}.json")
        if document is None:
            self.misses += 1
            return None
        try:
            findings = [_finding_from_dict(f)
                        for f in document["findings"]]  # type: ignore[union-attr]
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def store_flow(self, key: str, findings: list[Finding]) -> None:
        self._write(self.root / f"fl_{key}.json", {
            "version": CACHE_VERSION,
            "findings": [_finding_to_dict(f) for f in findings],
        })
