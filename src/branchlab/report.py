"""Tab-separated check reports with a recorded seed."""

from __future__ import annotations

from dataclasses import dataclass

STATUSES = ("PASS", "FAIL", "ERROR")


@dataclass(frozen=True)
class ReportLine:
    status: str
    check_id: str
    witness: str = ""

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        for field in (self.check_id, self.witness):
            if "\t" in field or "\n" in field:
                raise ValueError("report fields must not contain "
                                 "tabs or newlines")

    def render(self) -> str:
        if self.witness:
            return f"{self.status}\t{self.check_id}\t{self.witness}"
        return f"{self.status}\t{self.check_id}"


@dataclass(frozen=True)
class Report:
    seed: int
    lines: tuple[ReportLine, ...]

    @property
    def ok(self) -> bool:
        return all(ln.status == "PASS" for ln in self.lines)

    def render(self) -> str:
        return "\n".join([f"# seed {self.seed}"]
                         + [ln.render() for ln in self.lines])


def _clean(x) -> str:
    """x as one line: whitespace runs, newlines included, become a space."""
    return " ".join(str(x).split())


def passed(check_id: str, witness: str = "") -> ReportLine:
    return ReportLine("PASS", check_id, witness)


def failed(check_id: str, witness: str = "") -> ReportLine:
    return ReportLine("FAIL", check_id, witness)


def errored(check_id: str, witness: str = "") -> ReportLine:
    return ReportLine("ERROR", check_id, witness)
