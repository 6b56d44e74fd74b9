"""Per-pass bookkeeping shared by the pipeline, the CLI and the scripts."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields


@dataclass
class PassReport:
    """What one preprocessing pass did to the formula, and, in verify
    mode, whether the oracle checked it (`verify_checked`) or skipped it
    for budget (`verify_skipped`). Neither verify count nor the wall time
    is a change: they leave `changed` and equality alone."""

    name: str
    clauses_removed: int = 0
    clauses_shortened: int = 0
    units_added: int = 0
    equivalences_added: int = 0
    conflicts: int = 0
    wall_time: float = field(default=0.0, compare=False)
    verify_checked: int = field(default=0, compare=False)
    verify_skipped: int = field(default=0, compare=False)

    @property
    def changed(self) -> bool:
        return bool(self.clauses_removed or self.clauses_shortened
                    or self.units_added or self.equivalences_added
                    or self.conflicts)

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


def merge_reports(reports: Iterable[PassReport]) -> dict[str, PassReport]:
    """One report per pass name, in order of first appearance, holding the
    sums of every counter and of the wall time of that pass's reports."""
    totals: dict[str, PassReport] = {}
    summed = [f.name for f in fields(PassReport) if f.name != "name"]
    for report in reports:
        total = totals.setdefault(report.name, PassReport(report.name))
        for key in summed:
            setattr(total, key, getattr(total, key) + getattr(report, key))
    return totals
