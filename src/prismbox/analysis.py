"""CFG utilities: dominators, postdominators, and natural-loop discovery.

Each function's CFG is built once, during validation, and kept through
instrumentation, which adds instructions but no block or edge; positions are
indexed on first use.  Dominance is a Cooper-Harvey-Kennedy immediate-
dominator tree ("A Simple, Fast Dominance Algorithm", 2001) numbered in
preorder, so "a dominates b" is an interval test.  The postdominator tree,
read only by check combining and loop hoisting, is built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .ir import Function, Instr

VIRTUAL_EXIT = "__exit__"


def _dominator_tree(succ: dict[str, list[str]],
                    order: list[str]) -> dict[str, tuple[int, int]]:
    """Each block in reverse postorder `order` -> the preorder interval
    (pre, end) of its dominator subtree; a dominates b iff a's holds pre_b."""
    if len(order) == 1:             # most functions are one block
        return {order[0]: (0, 1)}
    num = {label: i for i, label in enumerate(order)}
    preds: list[list[int]] = [[] for _ in order]
    for label in order:
        for dest in succ.get(label, ()):
            preds[num[dest]].append(num[label])
    # Dominators come earlier in reverse postorder; -1 is "not reached yet".
    idom = [0] + [-1] * (len(order) - 1)
    changed = True
    while changed:
        changed = False
        for b in range(1, len(order)):
            new = -1
            for p in preds[b]:
                if idom[p] < 0:
                    continue
                while new >= 0 and p != new:     # intersect p and new
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
                new = p
            if idom[b] != new:
                idom[b], changed = new, True
    # Subtree sizes add up backwards; preorder slots are handed out forwards.
    size, pre, free = [1] * len(order), [0] * len(order), [1] * len(order)
    for b in range(len(order) - 1, 0, -1):
        size[idom[b]] += size[b]
    for b in range(1, len(order)):
        pre[b] = free[idom[b]]
        free[idom[b]] += size[b]
        free[b] = pre[b] + 1
    return {label: (pre[b], pre[b] + size[b]) for b, label in enumerate(order)}


def _reverse_postorder(succ: dict[str, list[str]], entry: str) -> list[str]:
    # Depth-first on an explicit stack: a guest CFG may be thousands deep.
    seen, out = {entry}, []
    stack = [(entry, iter(succ.get(entry, ())))]
    while stack:
        label, nexts = stack[-1]
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(succ.get(nxt, ()))))
                break
        else:
            stack.pop()
            out.append(label)
    out.reverse()
    return out


def _holds(tree: dict, a: str, b: str) -> bool:
    """Does a dominate b in `tree`?  Blocks not in the tree dominate none."""
    ia, ib = tree.get(a), tree.get(b)
    return ia is not None and ib is not None and ia[0] <= ib[0] < ia[1]


@dataclass
class Loop:
    header: str
    latch: str
    body: set = field(default_factory=set)
    preheader: str | None = None


class CfgInfo:
    """Per-function dominance facts plus instruction positions."""

    def __init__(self, fn: Function):
        self.fn = fn
        # A validated block ends in its terminator.
        self.succ = {b.label: list(b.instrs[-1].labels) for b in fn.blocks}
        self.pred = {label: [] for label in self.succ}
        for src, dests in self.succ.items():
            for dest in dests:
                self.pred[dest].append(src)
        order = _reverse_postorder(self.succ, fn.entry.label)
        self.reachable = set(order)
        self.dom = _dominator_tree(self.succ, order)
        self._pos: dict | None = None
        self.loops = self._find_loops()

    @cached_property
    def postdom(self) -> dict[str, tuple[int, int]]:
        # The reversed CFG, from a virtual exit to the blocks that return.
        rsucc = dict(self.pred)
        rsucc[VIRTUAL_EXIT] = [b.label for b in self.fn.blocks
                               if b.instrs[-1].op == "ret"]
        return _dominator_tree(rsucc, _reverse_postorder(rsucc, VIRTUAL_EXIT))

    def position(self, instr: Instr) -> tuple[str, int]:
        if self._pos is None:
            self._pos = {id(instr): (block.label, idx)
                         for block in self.fn.blocks
                         for idx, instr in enumerate(block.instrs)}
        return self._pos[id(instr)]

    def block_dominates(self, a: str, b: str) -> bool:
        return _holds(self.dom, a, b)

    def dominates(self, a: Instr, b: Instr) -> bool:
        """Does instruction a dominate instruction b?"""
        ablock, aidx = self.position(a)
        bblock, bidx = self.position(b)
        if ablock == bblock:
            return aidx < bidx
        return self.block_dominates(ablock, bblock)

    def postdominates(self, a: Instr, b: Instr) -> bool:
        """Does instruction a postdominate instruction b?"""
        ablock, aidx = self.position(a)
        bblock, bidx = self.position(b)
        if ablock == bblock:
            return aidx > bidx
        return _holds(self.postdom, ablock, bblock)

    def block_postdominates(self, a: str, b: str) -> bool:
        return _holds(self.postdom, a, b)

    def _find_loops(self) -> list[Loop]:
        loops = []
        for src, dests in self.succ.items():
            if src not in self.reachable:
                continue
            for header in dests:
                lo, end = self.dom[header]
                if not lo <= self.dom[src][0] < end:     # not a back edge
                    continue
                body = {header}
                stack = [src]
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(self.pred[node])
                loop = Loop(header=header, latch=src, body=body)
                outside = [p for p in self.pred[header] if p not in body]
                if len(outside) == 1:
                    loop.preheader = outside[0]
                loops.append(loop)
        loops.sort(key=lambda lp: lp.header)
        return loops
