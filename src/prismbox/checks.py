"""The dynamic bounds check and its counters.

One predicate, `access_check`, serves every mode.  Each mode's upper-bound
test is one Python source text, `_upper`, built on the mode's tag decode
(`tagging.decode_source`): prism and prism32 compare the end against the
EA, pow2 XORs it against the aligned size.  `access_check` runs the test
compiled once per mode and `fast_pass` writes it into the VM's compiled
blocks.  Only below the KSA do prism and prism32 fetch the SA stored after
the EA, which the same decode locates, and pow2 XOR the pointer.
Addresses are compared raw (untagged).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .tagging import DECODE, MASK64, MODE_KINDS, Mode, decode_source


class Reason(Enum):
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"
    ESCAPE_INVARIANT = "escape_invariant"


@dataclass(frozen=True)
class CheckOutcome:
    ok: bool
    reason: Reason | None = None
    sa_fetched: bool = False
    xor_lower: bool = False


# What every check that passes without an SA fetch or a lower XOR returns.
PASS = CheckOutcome(True)

# fetch_log keeps the first FETCH_LOG_LIMIT SA fetches; sa_fetches counts all.
FETCH_LOG_LIMIT = 1024


@dataclass
class CheckStats:
    dynamic_checks: int = 0
    sa_fetches: int = 0
    xor_lower_paths: int = 0
    aborts: int = 0
    fetch_log: list = field(default_factory=list)  # (ptr, ksa_raw) per SA fetch

    def note(self, outcome: CheckOutcome) -> None:
        self.dynamic_checks += 1
        if outcome.sa_fetched:
            self.sa_fetches += 1
        if outcome.xor_lower:
            self.xor_lower_paths += 1
        if not outcome.ok:
            self.aborts += 1


def _upper(mode: Mode, k: str, end: str) -> str:
    """Python source of the mode's upper-bound test: the access ending at
    `end` (exclusive) stays within the object that KSA `k` tags.  `k` must
    be a name; it is read more than once."""
    bound = decode_source(mode.kind, k)
    if mode.kind == "pow2":        # XOR against the aligned size
        return f"({k} & {mode.mask:#x}) ^ {end} < {bound}"
    return f"{end} <= {bound}"     # the EA


# The upper-bound test of each mode kind as a function (ksa, end) -> bool.
_UPPER = {kind: eval(f"lambda k, end: {_upper(Mode(kind), 'k', 'end')}")
          for kind in MODE_KINDS}


def access_check(mode: Mode, ksa: int, ptr: int, access_size: int, mem,
                 stats: CheckStats | None = None,
                 skip_lower: bool = False) -> CheckOutcome:
    """Check `access_size` bytes at raw `ptr` against the object tagged
    `ksa`; `mem` is read only for the SA fetch (pow2 may pass None)."""
    # 64-bit saturation: wrapping could only turn an abort into a pass.
    end = ptr + access_size
    if end > MASK64:
        end = MASK64
    ksa_raw = ksa & mode.mask
    if not _UPPER[mode.kind](ksa, end):
        outcome = CheckOutcome(False, Reason.UPPER_BOUND)
    elif skip_lower or ptr >= ksa_raw:
        if stats is not None:
            stats.dynamic_checks += 1
        return PASS
    else:
        # Below the KSA, off the common path: pow2 XORs the pointer with the
        # aligned size; prism and prism32 fetch the SA stored after the EA.
        pow2 = mode.kind == "pow2"
        bound = DECODE[mode.kind](ksa)
        ok = (ksa_raw ^ ptr) < bound if pow2 else ptr >= mem.read_sa(bound)
        outcome = CheckOutcome(ok, None if ok else Reason.LOWER_BOUND,
                               sa_fetched=not pow2, xor_lower=pow2)
        if (not pow2 and stats is not None
                and len(stats.fetch_log) < FETCH_LOG_LIMIT):
            stats.fetch_log.append((ptr, ksa_raw))
    if stats is not None:
        stats.note(outcome)
    return outcome


def bounds_check_2k(ksa: int, ptr: int, access_size: int, mode: Mode,
                    stats: CheckStats | None = None,
                    skip_lower: bool = False) -> CheckOutcome:
    """`access_check` in pow2 `mode`, which needs no memory."""
    return access_check(mode, ksa, ptr, access_size, None, stats, skip_lower)


def fast_pass(mode: Mode, ksa: str, ptr: str, size: int,
              skip_lower: bool = False) -> str:
    """Python source of a test that holds only where `access_check(mode,
    ksa, ptr, size, ..., skip_lower)` returns PASS: ok, with no SA fetch and
    no lower-bound XOR.  `ksa` and `ptr` must be names; each is read twice.

    The end is not saturated.  That only matters for an end past MASK64,
    and such an end passes here only where the saturated end passes too.
    """
    upper = _upper(mode, ksa, f"({ptr} + {size})")
    if skip_lower:
        return upper
    return f"{upper} and {ptr} >= ({ksa} & {mode.mask:#x})"


def escape_check(mode: Mode, value: int, ksa: int, mem,
                 maybe_equal_at_runtime: bool = False,
                 stats: CheckStats | None = None) -> CheckOutcome:
    """Zero-size bounds check enforcing that an escaping value is <= EA."""
    if maybe_equal_at_runtime and mode.strip(value) == mode.strip(ksa):
        return PASS
    outcome = access_check(mode, ksa, mode.strip(value), 0, mem, stats)
    if not outcome.ok:
        outcome = replace(outcome, reason=Reason.ESCAPE_INVARIANT)
    return outcome
