"""CFG analysis against a naive reference, and its memory on long CFGs.

`CfgInfo` keeps dominance as an immediate-dominator tree.  The reference
here is the textbook iterative dataflow over explicit dominator sets, run
on random CFGs with unreachable blocks, self-loops, duplicate edges and
blocks that never return.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deep_program, python_isolated
from prismbox.analysis import CfgInfo
from prismbox.ir import parse
from test_cli import PEAK_RSS


@st.composite
def cfg_texts(draw) -> str:
    """@main over up to 30 blocks, each one `add` and a random terminator."""
    n = draw(st.integers(1, 30))
    target = st.integers(0, n - 1)
    lines = ["fn @main(%c: int) {"]
    for i in range(n):
        kind = draw(st.sampled_from(["br", "condbr", "ret"]))
        term = {"br": lambda: f"br ^b{draw(target)}",
                "condbr": lambda: (f"condbr %c, ^b{draw(target)}, "
                                   f"^b{draw(target)}"),
                "ret": lambda: "ret 0"}[kind]()
        lines += [f"^b{i}:", f"  %x{i} = add 1, 2", f"  {term}"]
    return "\n".join(lines + ["}", ""])


def _dominator_sets(succ: dict, entry: str) -> dict:
    """Block -> the set of its dominators, for the blocks entry reaches."""
    reach, stack = {entry}, [entry]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in reach:
                reach.add(nxt)
                stack.append(nxt)
    pred = {b: [p for p in reach if b in succ[p]] for b in reach}
    dom = {b: set(reach) for b in reach}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for b in reach - {entry}:
            new = {b}.union(set.intersection(*(dom[p] for p in pred[b])))
            if new != dom[b]:
                dom[b], changed = new, True
    return dom


def _reference(fn):
    succ = {b.label: list(b.terminator.labels) for b in fn.blocks}
    dom = _dominator_sets(succ, fn.entry.label)
    # Predecessors once per edge, duplicate edges included.
    rsucc = {b: [p for p in succ for d in succ[p] if d == b] for b in succ}
    rsucc["exit"] = [b.label for b in fn.blocks if b.terminator.op == "ret"]
    postdom = _dominator_sets(rsucc, "exit")
    loops = []
    for src in succ:
        for header in succ[src]:
            if src in dom and header in dom[src]:
                body, stack = {header}, [src]
                while stack:
                    node = stack.pop()
                    if node not in body:
                        body.add(node)
                        stack.extend(rsucc[node])
                outside = [p for p in rsucc[header] if p not in body]
                loops.append((header, src, body,
                              outside[0] if len(outside) == 1 else None))
    loops.sort(key=lambda lp: lp[0])
    return dom, postdom, loops


@settings(max_examples=200, deadline=None)
@given(cfg_texts())
def test_cfg_facts_match_naive_dominator_sets(text):
    fn = parse(text).functions["main"]
    cfg = CfgInfo(fn)
    dom, postdom, loops = _reference(fn)
    assert cfg.reachable == set(dom)
    assert [(lp.header, lp.latch, lp.body, lp.preheader)
            for lp in cfg.loops] == loops
    instrs = [i for b in fn.blocks for i in b.instrs]
    for a in instrs:
        ablock, aidx = cfg.position(a)
        for b in instrs:
            bblock, bidx = cfg.position(b)
            same = ablock == bblock
            assert cfg.dominates(a, b) == (
                aidx < bidx if same else ablock in dom.get(bblock, ()))
            assert cfg.postdominates(a, b) == (
                aidx > bidx if same else ablock in postdom.get(bblock, ()))
            assert cfg.block_postdominates(ablock, bblock) == (
                ablock in postdom.get(bblock, ()))


# Instruments the program in the file named by argv[1].
INSTRUMENT_FILE = ("import sys; from prismbox.instrument import "
                   "instrument_text; from prismbox.tagging import Mode; "
                   "instrument_text(open(sys.argv[1]).read(), "
                   "Mode('prism', 0))")


def test_long_block_chain_instruments_in_little_memory(tmp_path):
    # 3000 chained blocks; dominator sets per block peaked at ~441 MB.
    path = tmp_path / "chain.pir"
    path.write_text(deep_program("blocks", 3000))
    proc = python_isolated(PEAK_RSS, INSTRUMENT_FILE, str(path), timeout=120)
    child = json.loads(proc.stdout)
    assert child["code"] == 0, child["err"]
    assert child["maxrss_kb"] < 100 * 1024, child["maxrss_kb"]
