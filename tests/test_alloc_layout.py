"""The allocator's layout pinned byte for byte, and its inline tag checks.

A fixed sequence of allocations runs in each mode at q = 0, 8 and 32, and
one SHA-256 covers everything it leaves behind: every tag, every record
field, the record index (`_bounds` and `_owners`) and the bytes of every
mapped page.  The digests were computed before the allocators were
shortened, so any change to where an object lands, what its tag says or
what its SA store writes fails here.  Each tag must also equal what the
mode's `encode_*` function gives for its record.
"""

import hashlib

import pytest

from prismbox.heap import PAGE, SMALL_BASE, SimMemory
from prismbox.tagging import (EncodingError, FrameClass, Mode, encode_ea32,
                              encode_pow2, encode_prism)

KINDS = ["prism", "prism32", "pow2"]
MODES = [(kind, q) for kind in KINDS for q in (0, 8, 32)]


def heap_sizes(q: int) -> list:
    """Sizes 1, 7, 8 and 16, 2^k - 1, 2^k and 2^k + 1 for k = 3..17, and
    the sizes either side of prism's move into large frames."""
    powers = [(1 << k) + d for k in range(3, 18) for d in (-1, 0, 1)]
    split = [PAGE - q - 9, PAGE - q - 8, PAGE - q - 7]
    return [1, 7, 8, 16, *powers, *split, 16, 1]


def layout(kind: str, q: int) -> SimMemory:
    """The memory a fixed sequence of allocations leaves: heap objects, a
    global, escaped and dynamic stack objects small and large, a frame
    popped and its addresses reused, a free, and SAs over written pages."""
    m = SimMemory(Mode(kind, q))
    tags = [m.alloc(size) for size in heap_sizes(q)]
    tags.append(m.alloc_stack_escaped(12, kind="global"))
    mark = m.stack_mark()
    tags += [m.alloc_stack_escaped(size)
             for size in (1, 24, PAGE - 9, PAGE - 8, 70_000)]
    tags += [m.alloc_stack_dynamic(size) for size in (40, 65_000, 3)]
    m.release_stack(mark)
    tags += [m.alloc_stack_dynamic(8), m.alloc_stack_escaped(100)]
    m.free(tags[3])
    # A write before the next allocations gives their page its own buffer,
    # so their SA stores take the codec path.
    m.write(m.mode.strip(tags[-1]), b"\x5a" * 100)
    tags += [m.alloc(size) for size in (40, 3000, 9)]
    m.tags = tags
    return m


def layout_digest(m: SimMemory) -> str:
    number = {id(rec): n for n, rec in enumerate(m.records)}
    h = hashlib.sha256()
    h.update(repr(m.tags).encode())
    for rec in m.records:
        h.update(repr((rec.sa, rec.ea, rec.request_size, rec.q, rec.live,
                       rec.tagged, rec.aligned_size, rec.region,
                       rec.kind)).encode())
    h.update(repr(m._bounds).encode())
    h.update(repr([[number[id(rec)] for rec in below]
                   for below in m._owners]).encode())
    for base in sorted(m.pages):
        h.update(base.to_bytes(8, "little"))
        h.update(m.pages[base])
    return h.hexdigest()


# layout_digest of each mode and q, computed on the allocators as they were
# before the short paths.
LAYOUT_DIGESTS = {
    ("prism", 0): "4b562a860e5bdeb6edd71e4d981201c7d870f324d1a79c8b915185af4e9cdc9b",
    ("prism", 8): "c27cb3c6deec1557bfc06733eb0e04a45c28b35f1a698f8ba8835238860ec103",
    ("prism", 32): "387c62f4408223d49df8e3c999a66a5cfbf64fa33dfae6eaee41b1d88cbdca67",
    ("prism32", 0): "bcf7a53e248a663e0e18dc09372dcd830ea944771bbecad22748b5da058605dc",
    ("prism32", 8): "f75e04a3728d42f6779bb3f45999ad633d83755d041df742c2ba6a0c1f25ab68",
    ("prism32", 32): "5233b4a72cd216017988f70ee8386b9e84f786bcb4078f5884abc21a5dcec690",
    ("pow2", 0): "63e2825be24f6f23d6792252d3614fe49e79409e5fb1a22618d12a1e442b5142",
    ("pow2", 8): "168bc48349df5f9a0b57dcf2a78d0d59e774df75f69b3bcfe948ba18216a0c64",
    ("pow2", 32): "1eee3d648dbcc8ea300afd540f3052a2b98dd3224e10dcd0dbc40288d02d7edd",
}


@pytest.mark.parametrize("kind,q", MODES)
def test_the_allocation_layout_is_unchanged(kind, q):
    assert layout_digest(layout(kind, q)) == LAYOUT_DIGESTS[kind, q]


@pytest.mark.parametrize("kind,q", MODES)
def test_each_tag_is_its_records_encoding(kind, q):
    m = layout(kind, q)
    assert [rec.tagged for rec in m.records] == m.tags
    for rec in m.records:
        if kind == "prism":
            want = encode_prism(rec.sa, rec.ea, FrameClass(rec.tagged >> 63))
        elif kind == "prism32":
            want = encode_ea32(rec.sa, rec.ea)
        else:
            want = encode_pow2(rec.sa, rec.aligned_size.bit_length() - 1)
        assert rec.tagged == want


def test_a_small_object_over_a_frame_edge_is_refused():
    # prism's allocator checks each tag as `encode_prism` does; a cursor
    # that would put an object across a 64KB frame's end fails that check.
    m = SimMemory(Mode("prism"))
    m.alloc(16)
    m._small_frame, m._small_bump = SMALL_BASE + PAGE - 8, 0
    with pytest.raises(EncodingError, match="sa=0x10000fff8 ea=0x100010008"):
        m.alloc(16)


def test_a_32_bit_object_below_its_start_is_refused():
    # prism32's allocator checks each tag as `encode_ea32` does.
    m = SimMemory(Mode("prism32"))
    with pytest.raises(EncodingError, match="sa=0x40000000 ea=0x3ffffffb"):
        m.alloc_32(-5)
