"""Pass/fail verdict records and report rendering."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Verdict:
    criterion: str
    description: str
    observed: str
    threshold: str
    passed: bool

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.criterion}: {self.description} (observed {self.observed}, require {self.threshold})"


@dataclass
class Report:
    experiment: str
    version: str
    master_seed: int | None = None  # None: unknown, e.g. re-rendered from a CSV
    wall_time_s: float | None = None
    verdicts: list[Verdict] = field(default_factory=list)
    calibration: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def render_text(self) -> str:
        lines = [
            f"experiment: {self.experiment}",
            f"version: {self.version}",
            f"master_seed: {'unknown' if self.master_seed is None else self.master_seed}",
            f"wall_time_s: {'unknown' if self.wall_time_s is None else f'{self.wall_time_s:.2f}'}",
        ]
        if self.calibration:
            lines.append("calibration:")
            for key in sorted(self.calibration):
                lines.append(f"  {key} = {self.calibration[key]}")
        if self.verdicts:
            lines.append("checks:")
            lines.extend("  " + v.line() for v in self.verdicts)
        else:
            lines.append("checks: none declared")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def verdict_jsonl(self) -> str:
        rows = [json.dumps({"experiment": self.experiment, **asdict(v)}, sort_keys=True)
                for v in self.verdicts]
        return "\n".join(rows) + ("\n" if rows else "")

    def write(self, out: Path, stem: str) -> dict[str, Path]:
        """Save ``<stem>.report.txt`` and ``<stem>.verdicts.jsonl`` in ``out``; their paths."""
        paths = {"report": out / f"{stem}.report.txt", "verdicts": out / f"{stem}.verdicts.jsonl"}
        paths["report"].write_text(self.render_text(), encoding="utf-8")
        paths["verdicts"].write_text(self.verdict_jsonl(), encoding="utf-8")
        return paths
