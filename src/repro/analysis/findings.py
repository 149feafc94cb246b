"""Finding data type shared by rules, the engine, and the reporters."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``line``/``col`` are 1-based (matching compiler diagnostics).  A
    *suppressed* finding matched a ``# repro: noqa`` comment carrying its
    rule id; it is kept in the report (with its justification) so the
    JSON output is a complete audit trail, but it does not fail the run.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str | None = None

    def suppress(self, justification: str) -> "Finding":
        return replace(self, suppressed=True, justification=justification)

    @property
    def active(self) -> bool:
        """Whether this finding should fail the run."""
        return not self.suppressed

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)
