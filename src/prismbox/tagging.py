"""Tag-area encoding for 64-bit values carrying a 47-bit raw address.

Layout (prism): bit 63 = frame class (0 small, 1 large), bits 47-62 = the
16-bit tag-offset, bits 0-46 = raw address.  prism32 packs a full 32-bit
end address into bits 32-63 and the raw address into bits 0-31.  pow2
stores log2 of the aligned allocation size in the tag area.

`decode_source` is each mode's one text for what the tag bounds; `compute_ea`,
`decode_ea32`, `pow2_aligned_size` and the `checks` predicate are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

ADDR_BITS = 47
ADDR_MASK = (1 << ADDR_BITS) - 1          # 0x7FFF_FFFF_FFFF
ADDR_MASK_32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1

CLASS_BIT = 1 << 63
TAG_SHIFT = 47

LARGE_FRAME = 1 << 32
SMALL_FRAME_MASK = 0x7FFF_FFFF_0000       # clears the low 16 bits of a raw address
LARGE_FRAME_MASK = 0x7FFF_0000_0000       # clears the low 32 bits of a raw address


class EncodingError(Exception):
    pass


class FrameClass(Enum):
    SMALL = 0
    LARGE = 1


MODE_KINDS = ("prism", "pow2", "prism32")


@dataclass(frozen=True)
class Mode:
    """Sandbox mode plus the q-padding byte count, fixed per instance."""

    kind: str = "prism"
    q: int = 0
    # The raw-address bits, fixed by the kind.
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise ValueError(f"unknown mode kind: {self.kind!r}")
        if self.q < 0:
            raise ValueError("q-padding must be non-negative")
        object.__setattr__(self, "mask", ADDR_MASK_32
                           if self.kind == "prism32" else ADDR_MASK)

    def strip(self, value: int) -> int:
        return value & self.mask


def strip_tag(value: int, mode: Mode | None = None) -> int:
    """Drop the tag area, leaving the raw address.  Idempotent."""
    if mode is not None:
        return mode.strip(value)
    return value & ADDR_MASK


def encode_prism(sa: int, ea: int, frame_class: FrameClass) -> int:
    """Pack (sa, ea) into a tagged value for the given frame class."""
    if not (0 <= sa <= ea):
        raise EncodingError(f"need 0 <= sa <= ea, got sa={sa:#x} ea={ea:#x}")
    if ea > ADDR_MASK:
        raise EncodingError(f"ea {ea:#x} outside 47-bit space")
    if frame_class is FrameClass.SMALL:
        if sa >> 16 != ea >> 16:
            raise EncodingError(
                f"small object straddles a 64KB frame: sa={sa:#x} ea={ea:#x}")
        return ((ea & 0xFFFF) << TAG_SHIFT) | sa
    # Large: ea must be 64KB-aligned and share the 4GB frame with sa.
    if ea & 0xFFFF:
        raise EncodingError(f"large-object ea {ea:#x} not 64KB-aligned")
    if sa >> 32 != ea >> 32 and sa != ea:
        raise EncodingError(
            f"large object leaves its 4GB frame: sa={sa:#x} ea={ea:#x}")
    frame_base = sa & ~(LARGE_FRAME - 1)
    tag_offset = (ea - frame_base) >> 16
    return CLASS_BIT | (tag_offset << TAG_SHIFT) | sa


def decode_source(kind: str, k: str) -> str:
    """Python source of what the tag of the value named `k` bounds in mode
    `kind`: the EA in prism and prism32, the aligned size in pow2.  It can
    stand as an operand of a comparison.  `k` is read more than once."""
    if kind == "pow2":          # log2 of the aligned size
        return f"1 << ({k} >> {TAG_SHIFT})"
    if kind == "prism32":       # the EA itself, in the tag area
        return f"{k} >> 32"
    # prism: the frame start plus the frame-relative tag offset
    return (f"(({k} & {SMALL_FRAME_MASK:#x}) + ({k} >> {TAG_SHIFT})"
            f" if {k} < {CLASS_BIT:#x} else ({k} & {LARGE_FRAME_MASK:#x}) + "
            f"(({k} >> 31) & 0xFFFF0000))")


# Each mode kind's decode as a function of the tagged value.
DECODE = {kind: eval(f"lambda k: {decode_source(kind, 'k')}")
          for kind in MODE_KINDS}
compute_ea, decode_ea32, pow2_aligned_size = (
    DECODE[kind] for kind in ("prism", "prism32", "pow2"))


def encode_pow2(sa: int, log2_size: int) -> int:
    """Tag holds log2 of the aligned allocation size; sa must be aligned to it."""
    if not 0 <= log2_size <= 46:
        raise EncodingError(f"log2_size {log2_size} out of range")
    if sa & ((1 << log2_size) - 1):
        raise EncodingError(f"sa {sa:#x} not aligned to 2^{log2_size}")
    return (log2_size << TAG_SHIFT) | sa


def encode_ea32(sa: int, ea: int) -> int:
    """32-bit mode: the full end address lives in bits 32-63."""
    if not 0 <= sa <= ea:
        raise EncodingError(f"need 0 <= sa <= ea, got sa={sa:#x} ea={ea:#x}")
    if ea > ADDR_MASK_32:
        raise EncodingError(f"ea {ea:#x} exceeds the 32-bit space")
    return (ea << 32) | sa
