"""Dynamic bounds-check predicates and their counters.

All predicates compare raw (untagged) addresses; the tagged KSA is kept
only to reconstruct the end address from its tag area.  The start address
is fetched from memory only on the rare ptr < ksa path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .tagging import MASK64, Mode, compute_ea, decode_ea32, pow2_aligned_size


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


def bounds_check(ksa: int, ptr: int, access_size: int, mem,
                 stats: CheckStats | None = None,
                 skip_lower: bool = False) -> CheckOutcome:
    """Prism predicate: end-exclusive upper bound against the EA in the tag.

    prism reconstructs the EA from the frame-relative tag; prism32 reads it
    straight from the tag area.
    """
    mode = mem.mode
    ea = decode_ea32(ksa) if mode.kind == "prism32" else compute_ea(ksa)
    ksa_raw = ksa & mode.mask
    # 64-bit saturation: wrapping could only turn an abort into a pass.
    end = ptr + access_size
    if end > MASK64:
        end = MASK64
    if end > ea:
        outcome = CheckOutcome(False, Reason.UPPER_BOUND)
    elif not skip_lower and ptr < ksa_raw:
        if ptr < mem.read_sa(ea):
            outcome = CheckOutcome(False, Reason.LOWER_BOUND, sa_fetched=True)
        else:
            outcome = CheckOutcome(True, sa_fetched=True)
        if stats is not None and len(stats.fetch_log) < FETCH_LOG_LIMIT:
            stats.fetch_log.append((ptr, ksa_raw))
    else:
        if stats is not None:
            stats.dynamic_checks += 1
        return PASS
    if stats is not None:
        stats.note(outcome)
    return outcome


bounds_check32 = bounds_check   # the prism32 name; the mode picks the decoder


def bounds_check_2k(ksa: int, ptr: int, access_size: int, mode: Mode,
                    stats: CheckStats | None = None,
                    skip_lower: bool = False) -> CheckOutcome:
    """pow2 predicate: XOR against the aligned size; no memory access ever."""
    aligned = pow2_aligned_size(ksa)
    ksa_raw = ksa & mode.mask
    end = ptr + access_size
    if end > MASK64:    # saturated, as in bounds_check
        end = MASK64
    if (ksa_raw ^ end) >= aligned:
        outcome = CheckOutcome(False, Reason.UPPER_BOUND)
    elif not skip_lower and ptr < ksa_raw:
        # The ptr < ksa guard skips the lower-bound XOR on the common path.
        if (ksa_raw ^ ptr) >= aligned:
            outcome = CheckOutcome(False, Reason.LOWER_BOUND, xor_lower=True)
        else:
            outcome = CheckOutcome(True, xor_lower=True)
    else:
        if stats is not None:
            stats.dynamic_checks += 1
        return PASS
    if stats is not None:
        stats.note(outcome)
    return outcome


def access_check(mode: Mode, ksa: int, ptr: int, access_size: int, mem,
                 stats: CheckStats | None = None,
                 skip_lower: bool = False) -> CheckOutcome:
    if mode.kind == "pow2":
        return bounds_check_2k(ksa, ptr, access_size, mode, stats, skip_lower)
    return bounds_check(ksa, ptr, access_size, mem, stats, skip_lower)


def escape_check(mode: Mode, value: int, ksa: int, mem,
                 statically_aliased: bool = False,
                 maybe_equal_at_runtime: bool = False,
                 stats: CheckStats | None = None) -> CheckOutcome:
    """Zero-size bounds check enforcing that an escaping value is <= EA."""
    if statically_aliased:
        return PASS
    if maybe_equal_at_runtime and mode.strip(value) == mode.strip(ksa):
        return PASS
    outcome = access_check(mode, ksa, mode.strip(value), 0, mem, stats)
    if not outcome.ok:
        outcome = CheckOutcome(False, Reason.ESCAPE_INVARIANT,
                               sa_fetched=outcome.sa_fetched,
                               xor_lower=outcome.xor_lower)
    return outcome
