"""Exact-bounds oracle and the differential harness built on it.

The oracle executes the same instrumented program with an exact check
backend that classifies every access and escape against the allocation
records.  Divergences the design deliberately admits (padding accesses at
q-elided sites, power-of-two slack) are recorded and execution continues;
anything else aborts.  A run pair disagreeing on final exit or return
value is a sandbox bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .heap import IN_BOUNDS, IN_PADDING, OOB, classify  # noqa: F401
from .instrument import ELIDED_Q, InstrumentedProgram, instrument
from .ir import parse
from .tagging import Mode
from .vm import VM, OracleEvent, RunResult, VmError

INVALID_ESCAPE = "INVALID_ESCAPE"


def default_allowance(vm: VM, event: OracleEvent) -> bool:
    """Divergences the instrumentation admits by design.

    Anything returning False here makes the oracle abort, and a later exit
    mismatch against the production run flags a real bug.
    """
    site = event.site
    if (site is not None and site.status == ELIDED_Q
            and event.cls == IN_PADDING):
        return True
    rec = event.record
    if (vm.mode.kind == "pow2" and rec is not None
            and rec.aligned_size is not None):
        # The XOR predicate passes anything inside the aligned block whose
        # end address stays below the block boundary.
        return classify(event.addr, event.size, rec,
                        end=rec.sa + rec.aligned_size - 1) == IN_BOUNDS
    return False


@dataclass
class Verdict:
    ok: bool
    reason: str
    checks: RunResult | None = None
    oracle: RunResult | None = None
    allowed_events: int = 0

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "checks_exit": self.checks.exit_code if self.checks else None,
            "oracle_exit": self.oracle.exit_code if self.oracle else None,
            "allowed_events": self.allowed_events,
        }


def differential(text: str, mode: Mode, inputs: list[int] | None = None,
                 opts: tuple | None = None,
                 step_limit: int | None = None) -> Verdict:
    """Run the production checks and the exact oracle; compare outcomes."""
    from .instrument import ALL_OPTS
    iprog = instrument(parse(text), mode, opts if opts is not None else ALL_OPTS)
    return differential_on(iprog, inputs, step_limit)


def differential_on(iprog: InstrumentedProgram,
                    inputs: list[int] | None = None,
                    step_limit: int | None = None) -> Verdict:
    kwargs = {} if step_limit is None else {"step_limit": step_limit}
    checks_vm = VM(iprog, backend="checks", **kwargs)
    oracle_vm = VM(iprog, backend="oracle", allowance=default_allowance,
                   **kwargs)
    try:
        checks = checks_vm.run(inputs)
    except VmError as exc:
        checks, checks_err = None, str(exc)
    else:
        checks_err = None
    try:
        oracle = oracle_vm.run(inputs)
    except VmError as exc:
        oracle, oracle_err = None, str(exc)
    else:
        oracle_err = None

    allowed = len(oracle_vm.allowed_events)
    if checks_err is not None or oracle_err is not None:
        # Sandbox-level errors are deterministic and must hit both runs.
        if checks_err is not None and oracle_err is not None:
            return Verdict(True, "both-vm-error", allowed_events=allowed)
        return Verdict(False, f"vm-error-mismatch "
                              f"(checks={checks_err!r}, oracle={oracle_err!r})",
                       checks, oracle, allowed)
    if checks.exit_code == oracle.exit_code:
        if checks.exit_code == 0 and checks.ret != oracle.ret:
            return Verdict(False, "return-value-mismatch", checks, oracle,
                           allowed)
        return Verdict(True, "match", checks, oracle, allowed)
    # Widened and hoisted sites abort before the covered access would have;
    # the oracle still aborts, just later and possibly on a different path.
    if (checks.exit_code == 2 and oracle.exit_code in (2, 3)
            and checks.violation is not None
            and checks.violation.sid is not None):
        site = next((s for s in iprog.sites
                     if s.sid == checks.violation.sid), None)
        if site is not None and site.widened:
            return Verdict(True, "early-abort-at-widened-site", checks,
                           oracle, allowed)
    return Verdict(False,
                   f"exit-mismatch checks={checks.exit_code} "
                   f"oracle={oracle.exit_code}", checks, oracle, allowed)


def verdict_summary(verdicts: list[Verdict]) -> dict:
    out = {
        "total": len(verdicts),
        "ok": sum(1 for v in verdicts if v.ok),
        "mismatches": sum(1 for v in verdicts if not v.ok),
        "allowed_events": sum(v.allowed_events for v in verdicts),
        "violation_runs": sum(1 for v in verdicts
                              if v.checks is not None
                              and v.checks.exit_code != 0),
    }
    return out
