"""Aggregate static and dynamic check statistics into one report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .checks import CheckStats
from .instrument import InstrumentedProgram

SCHEMA_VERSION = 1


@dataclass
class StatsReport:
    mode: str
    q: int
    opts: tuple
    static_checks_inserted: int
    elided_by: dict
    active_checks: int
    dynamic_checks: int = 0
    sa_fetches: int = 0
    xor_lower_paths: int = 0
    violations: int = 0
    sites: list = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    @property
    def sa_fetch_fraction(self) -> float:
        if self.dynamic_checks == 0:
            return 0.0
        return self.sa_fetches / self.dynamic_checks

    def identity_ok(self) -> bool:
        # Lower-bound drops and hoists transform sites in place, so only the
        # q-padding and combine passes remove sites from the active count.
        return self.static_checks_inserted == (
            self.active_checks
            + self.elided_by["qpad"]
            + self.elided_by["combine"])

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "mode": self.mode,
            "q": self.q,
            "opts": list(self.opts),
            "static_checks_inserted": self.static_checks_inserted,
            "elided_by": dict(self.elided_by),
            "active_checks": self.active_checks,
            "dynamic_checks": self.dynamic_checks,
            "sa_fetches": self.sa_fetches,
            "sa_fetch_fraction": self.sa_fetch_fraction,
            "xor_lower_paths": self.xor_lower_paths,
            "violations": self.violations,
            "sites": self.sites,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def build_report(iprog: InstrumentedProgram,
                 check_stats: CheckStats | None = None,
                 violations: int = 0) -> StatsReport:
    report = StatsReport(
        mode=iprog.mode.kind,
        q=iprog.mode.q,
        opts=iprog.opts,
        static_checks_inserted=len(iprog.sites),
        elided_by=iprog.elided_counts(),
        active_checks=iprog.active_count(),
        violations=violations,
        sites=iprog.site_table(),
    )
    if check_stats is not None:
        report.dynamic_checks = check_stats.dynamic_checks
        report.sa_fetches = check_stats.sa_fetches
        report.xor_lower_paths = check_stats.xor_lower_paths
    return report
