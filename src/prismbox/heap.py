"""Simulated allocator over a sparse 47-bit address space.

Small objects bump-allocate inside 64KB frames; large objects live in
fixed-slot 4GB frames with pre-padding so the end address is 64KB-aligned.
Every allocation stores its start address in the 8 bytes at EA+q (except
pow2 mode, which checks bounds by XOR and never reads SA back).
Memory is materialized lazily as 64KB pages; touching an unmapped page is
a SimFault.  A guest can reach one through a pointer with a forged tag,
so the VM reports it as a VmError.  A mapped page is the shared read-only
ZERO_PAGE until its first write gives it its own buffer, so an allocation
costs memory only for the pages written.

Stack addresses are reused: popping a frame rewinds the stack pointer, so
a later frame's objects can cover a dead frame's records.  Every record
lookup therefore goes through one index over record bounds
(`SimMemory.record_at`).  By address alone it answers with the newest
record covering an address; given the tagged pointer, it answers with the
newest covering record that carries the pointer's tag, so a dangling
pointer into a popped frame still finds its own record.  A record that
starts above the index's last bound is appended to it in place; any other
is inserted.  pow2 and prism32 place every object, stack objects too,
with one bump pointer that never rewinds, so every record is appended.
prism keeps small objects, large objects and the stack in three regions,
in that address order, so an object is appended only when it lies in the
highest region used so far and not over a popped frame.

Allocation is cheap on purpose, since it is where the metadata is paid
for.  A `SimMemory` picks its mode's allocator once (`_ALLOCATORS`), so
`alloc` is a range check and one call; a bump allocator maps only the
pages past the last one it mapped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .tagging import (
    ADDR_MASK,
    FrameClass,
    Mode,
    encode_ea32,
    encode_pow2,
    encode_prism,
)

PAGE = 1 << 16
LOW_GUARD = 1 << 22                 # first 4MB is never mapped
MAX_ALLOC = (1 << 32) - (1 << 16)   # 4GB - 64KB
ZERO_PAGE = bytes(PAGE)

SMALL_BASE = 1 << 32
LARGE_BASE = 1 << 33
POW2_BASE = 1 << 35
STACK_BASE = 1 << 34
BASE32 = 1 << 30
# prism and prism32 reserve nothing in their top 1GB, so no window of up to
# TOP_GUARD bytes above a KSA wraps when masked (see the lower-bound drop).
TOP_GUARD = 1 << 30


class SimFault(Exception):
    """Access to unmapped simulated memory."""


class AllocError(Exception):
    pass


class FreeError(Exception):
    pass


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


def _next_pow2(value: int) -> int:
    return 1 << max(0, (value - 1).bit_length())


@dataclass(slots=True)
class AllocationRecord:
    """Exact oracle-side record of one allocation."""

    sa: int
    ea: int
    request_size: int
    q: int
    live: bool = True
    tagged: int = 0
    aligned_size: int | None = None   # pow2 mode only
    region: tuple[int, int] = (0, 0)  # reserved span, headers/padding included
    kind: str = "heap"                # heap | stack | global


IN_BOUNDS = "IN_BOUNDS"
IN_PADDING = "IN_PADDING"
OOB = "OOB"
INVALID_ESCAPE = "INVALID_ESCAPE"   # the oracle's class for an escape


def classify(addr: int, size: int, rec: AllocationRecord | None,
             end: int | None = None) -> str:
    """Exact classification of an access against one allocation record.

    An escaping pointer is a zero-size access: it may point at EA itself.
    `end` replaces rec.ea as the upper bound (pow2 block slack).
    """
    if rec is None or addr < rec.sa:
        return OOB
    end = rec.ea if end is None else end
    if addr + size <= end:
        return IN_BOUNDS
    if addr + size <= end + rec.q:
        return IN_PADDING
    return OOB


@dataclass
class _LargeFrame:
    base: int
    next_slot: int = 0
    slot_cap: int = 0


class SimMemory:
    """One sandbox instance: pages, frames, and the allocation records.

    materialize=False skips the byte buffers (layout bookkeeping only);
    useful for bulk layout sweeps where nothing reads memory back.
    """

    def __init__(self, mode: Mode, materialize: bool = True):
        self.mode = mode
        self.q = mode.q
        self.materialize = materialize
        self.pages: dict[int, bytes | bytearray] = {}
        self.records: list[AllocationRecord] = []   # in allocation order
        # The record index: the sorted addresses at which the set of
        # covering records changes, and for each the records covering
        # [bounds[i], bounds[i+1]), newest first and one per tag.
        self._bounds: list[int] = []
        self._owners: list[tuple[AllocationRecord, ...]] = []
        # Allocator cursors.
        self._small_frame: int | None = None
        self._small_bump = 0
        self._next_small = SMALL_BASE
        self._large_frames: dict[int, _LargeFrame] = {}
        self._next_large = LARGE_BASE
        self._pow2_bump = POW2_BASE
        self._bump32 = BASE32
        self._mapped = 0        # the end of a bump allocator's last page
        # The mode's allocator, kept unbound: a bound method stored here
        # would form a cycle that keeps the instance alive until a GC pass.
        self._alloc = _ALLOCATORS[mode.kind]
        self.stack_ptr = STACK_BASE
        self._stack_limit = STACK_BASE + (1 << 32)

    # ------------------------------------------------------------------ pages

    def map_range(self, start: int, end: int) -> None:
        if start < LOW_GUARD:
            raise AllocError(f"mapping below the 4MB guard: {start:#x}")
        if not self.materialize:
            return
        for base in range(start & ~(PAGE - 1), end, PAGE):
            self.pages.setdefault(base, ZERO_PAGE)

    def _map_bump(self, start: int, end: int) -> None:
        """map_range for a bump allocator, whose spans only rise: the pages
        up to the last end it mapped are mapped already."""
        if end > self._mapped:
            self.map_range(max(start, self._mapped), end)
            self._mapped = _align_up(end, PAGE)

    def read(self, addr: int, length: int) -> bytes:
        out = bytearray()
        pos = addr
        while pos < addr + length:
            base = pos & ~(PAGE - 1)
            page = self.pages.get(base)
            if page is None:
                raise SimFault(f"read of unmapped address {pos:#x}")
            off = pos - base
            take = min(PAGE - off, addr + length - pos)
            out += page[off:off + take]
            pos += take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        pos = addr
        i = 0
        while i < len(data):
            base = pos & ~(PAGE - 1)
            page = self.pages.get(base)
            if page is None:
                raise SimFault(f"write to unmapped address {pos:#x}")
            if page is ZERO_PAGE:
                page = self.pages[base] = bytearray(PAGE)
            off = pos - base
            take = min(PAGE - off, len(data) - i)
            page[off:off + take] = data[i:i + take]
            pos += take
            i += take

    def read_int(self, addr: int, size: int) -> int:
        """The little-endian integer of `size` bytes at addr."""
        off = addr & (PAGE - 1)
        page = self.pages.get(addr - off)
        if page is not None and off + size <= PAGE:
            return int.from_bytes(page[off:off + size], "little")
        return int.from_bytes(self.read(addr, size), "little")

    def write_int(self, addr: int, size: int, value: int) -> None:
        """Store the low `size` bytes of value at addr, little-endian.  Its
        callers first try the page fast path, as `_record` does."""
        self.write(addr, (value & ((1 << (size << 3)) - 1)).to_bytes(
            size, "little"))

    def read_sa(self, ea: int) -> int:
        return self.read_int(ea + self.q, 8)

    # ------------------------------------------------------------ allocation

    def alloc(self, size: int) -> int:
        """Mode-dispatching allocation; returns the tagged start address."""
        if not 1 <= size <= MAX_ALLOC:
            raise AllocError(f"size {size} out of range [1, {MAX_ALLOC}]")
        return self._alloc(self, size)

    def _alloc_prism(self, size: int) -> int:
        """A small frame's next slot if the object, q and the SA fit one."""
        reserve = size + self.q + 8
        if reserve > PAGE:
            return self.alloc_large(size)
        if self._small_frame is None or self._small_bump + reserve > PAGE:
            if self._next_small >= LARGE_BASE:
                raise AllocError("small-frame address space exhausted")
            self._small_frame = self._next_small
            self._next_small += PAGE
            self._small_bump = 0
            self.map_range(self._small_frame, self._small_frame + PAGE)
        sa = self._small_frame + self._small_bump
        ea = sa + size
        self._small_bump = _align_up(self._small_bump + reserve, 8)
        tagged = encode_prism(sa, ea, FrameClass.SMALL)
        return self._record(sa, ea, size, tagged, (sa, ea + self.q + 8))

    def alloc_large(self, size: int) -> int:
        need = size + self.q + 8
        slot = _align_up(need, PAGE)
        if slot >= 1 << 32:     # the EA would be the next frame's base
            raise AllocError(f"size {size} with q={self.q} and its SA "
                             f"needs a whole 4GB frame")
        frame = self._large_frames.get(slot)
        if frame is None or frame.next_slot >= frame.slot_cap:
            if self._next_large == STACK_BASE:     # the stack's 4GB span
                self._next_large += 1 << 32
            if self._next_large + (1 << 32) > ADDR_MASK + 1 - TOP_GUARD:
                raise AllocError("large-frame address space exhausted")
            # The last slot is kept free so the final object's SA store at
            # EA+q stays inside the frame.
            frame = _LargeFrame(self._next_large,
                                slot_cap=(1 << 32) // slot - 1)
            self._large_frames[slot] = frame
            self._next_large += 1 << 32
        y = frame.base + frame.next_slot * slot
        frame.next_slot += 1
        sa = y + slot - size
        ea = y + slot
        self.map_range(sa, ea + self.q + 8)
        tagged = encode_prism(sa, ea, FrameClass.LARGE)
        return self._record(sa, ea, size, tagged, (y, ea))

    def alloc_pow2(self, size: int, kind: str = "heap") -> int:
        # Refused before any page is mapped: a q that leaves no room in
        # prism's 4GB frame even for one byte and its SA (alloc_large).
        if self.q + 9 > MAX_ALLOC:
            raise AllocError(f"q={self.q} padding needs more than a 4GB frame")
        aligned = _next_pow2(size + 1)
        if aligned.bit_length() - 1 > 46 or self._pow2_bump + aligned > ADDR_MASK:
            raise AllocError(f"pow2 allocation of {size} exceeds the budget")
        reserve = aligned if self.q == 0 else aligned + self.q - 1
        sa = _align_up(self._pow2_bump, aligned)
        self._pow2_bump = sa + reserve
        self._map_bump(sa, sa + reserve)
        ea = sa + size
        tagged = encode_pow2(sa, aligned.bit_length() - 1)
        return self._record(sa, ea, size, tagged, (sa, sa + reserve), kind,
                            aligned_size=aligned)

    def alloc_32(self, size: int, kind: str = "heap") -> int:
        sa = _align_up(self._bump32, 8)
        ea = sa + size
        end = ea + self.q + 8
        if end > (1 << 32) - TOP_GUARD:
            raise AllocError("32-bit address space exhausted")
        self._bump32 = end
        self._map_bump(sa, end)
        return self._record(sa, ea, size, encode_ea32(sa, ea), (sa, end), kind)

    def alloc_stack_escaped(self, size: int, kind: str = "stack") -> int:
        """Escaped fixed-size stack object (or a global) with metadata attached."""
        return self._alloc_stack(
            size, kind, _next_pow2(size + 1) if size + 8 <= PAGE else None)

    def alloc_stack_dynamic(self, size: int) -> int:
        """Runtime-sized alloca: realign to 64KB only when the object straddles."""
        ptr = _align_up(self.stack_ptr, 8)
        return self._alloc_stack(
            size, "stack", 8 if (ptr ^ (ptr + size)) < PAGE else None)

    def _alloc_stack(self, size: int, kind: str, align: int | None) -> int:
        """Place a stack object at the stack pointer rounded up to `align`, or
        (align=None) at the top of a 64KB-aligned span so EA is 64KB-aligned.
        prism32 and pow2 have no separate stack and use their heap allocators.
        """
        if self.mode.kind != "prism":
            return self._alloc(self, size, kind)
        if align is None:
            ea = _align_up(self.stack_ptr, PAGE) + _align_up(size, PAGE)
            sa = ea - size
            frame = FrameClass.LARGE
        else:
            sa = _align_up(self.stack_ptr, align)
            ea = sa + size
            frame = FrameClass.SMALL
        end = ea + self.q + 8
        if end > self._stack_limit:
            raise AllocError("stack space exhausted")
        self.map_range(min(sa, self.stack_ptr), end)
        self.stack_ptr = _align_up(end, 8)
        return self._record(sa, ea, size, encode_prism(sa, ea, frame),
                            (sa, end), kind)

    def _record(self, sa: int, ea: int, size: int, tagged: int,
                region: tuple[int, int], kind: str = "heap",
                aligned_size: int | None = None) -> int:
        """Record a new allocation; only pow2 (aligned_size) stores no SA."""
        q = self.q
        rec = AllocationRecord(sa, ea, size, q, True, tagged, aligned_size,
                               region, kind)
        self.records.append(rec)
        bounds = self._bounds
        if bounds and sa <= bounds[-1]:
            self._index(rec)
        else:       # above every record, as most are: append
            bounds += sa, ea + 1
            self._owners += (rec,), ()
        if aligned_size is None and self.materialize:
            # The page fast path: only a page written before has a buffer
            # of its own, and the SA must not cross the page's end.
            at = ea + q
            off = at & (PAGE - 1)
            page = self.pages.get(at - off)
            if isinstance(page, bytearray) and off <= PAGE - 8:
                page[off:off + 8] = sa.to_bytes(8, "little")
            else:
                self.write_int(at, 8, sa)
        return tagged

    # ------------------------------------------------------------------ free

    def free(self, tagged: int) -> None:
        if not tagged:      # free(NULL) does nothing, as in C
            return
        sa = self.mode.strip(tagged)
        rec = self.record_at(sa)
        if rec is None or rec.sa != sa:
            raise FreeError(f"free of unknown address {sa:#x}")
        if rec.kind == "global":
            raise FreeError(f"free of global {sa:#x}")
        if not rec.live:
            raise FreeError(f"double free of {sa:#x}")
        rec.live = False

    def stack_mark(self) -> tuple[int, int]:
        """Opaque frame mark for release_stack."""
        return (self.stack_ptr, len(self.records))

    def release_stack(self, mark: tuple[int, int]) -> None:
        """Pop stack allocations made since `mark` (from stack_mark)."""
        stack_ptr, nrecords = mark
        for rec in self.records[nrecords:]:
            if rec.kind == "stack" and rec.live:
                rec.live = False
        self.stack_ptr = stack_ptr

    # --------------------------------------------------------------- records

    def _index(self, rec: AllocationRecord) -> None:
        """Put rec first among the owners of [rec.sa, rec.ea], for a rec
        that starts at or below the last bound (`_record` appends others).

        The records under a new one are those of popped stack frames.  Each
        stays listed under it, unless a newer record has the same tag, so
        that a dangling pointer into the frame still finds it.
        """
        bounds, owners = self._bounds, self._owners
        cuts = []
        for at in (rec.sa, rec.ea + 1):
            i = bisect_left(bounds, at)
            if i == len(bounds) or bounds[i] != at:
                bounds.insert(i, at)
                owners.insert(i, owners[i - 1] if i else ())
            cuts.append(i)
        lo, hi = cuts
        tag = rec.tagged - rec.sa
        owners[lo:hi] = [(rec,) + tuple(r for r in below
                                        if r.tagged - r.sa != tag)
                         for below in owners[lo:hi]]

    def record_at(self, raw: int,
                  tagged: int | None = None) -> AllocationRecord | None:
        """The newest record, live or dead, whose [sa, ea] holds raw.

        Given `tagged`, the pointer raw was stripped from, the newest such
        record with the pointer's tag wins: a dangling pointer belongs to
        its own record, not to a newer object at the same address.
        """
        i = bisect_right(self._bounds, raw) - 1
        owners = self._owners[i] if i >= 0 else ()
        if tagged is not None:
            for rec in owners:
                if rec.tagged - rec.sa == tagged - raw:
                    return rec
        return owners[0] if owners else None

    def record_for_sa(self, sa: int) -> AllocationRecord | None:
        """The live record that starts at sa."""
        rec = self.record_at(sa)
        return rec if rec is not None and rec.live and rec.sa == sa else None

    def check_no_overlap(self) -> None:
        """Assert no two live reservations overlap; raises AssertionError."""
        spans = sorted(r.region for r in self.records if r.live)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start, (
                f"overlapping reservations [{a_start:#x},{a_end:#x}) and "
                f"[{b_start:#x},{b_end:#x})")


# Each mode kind's allocator, as `SimMemory._alloc`.
_ALLOCATORS = {"prism": SimMemory._alloc_prism, "prism32": SimMemory.alloc_32,
               "pow2": SimMemory.alloc_pow2}
