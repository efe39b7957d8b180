"""CFG utilities: dominators, postdominators, and natural-loop discovery.

Each function's CFG is built once, during validation.  Instrumentation adds
instructions but never a block or an edge, so it keeps that `CfgInfo` and
only refreshes the instruction positions afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import Function, Instr

VIRTUAL_EXIT = "__exit__"


def successors(fn: Function) -> dict[str, list[str]]:
    succ = {}
    for block in fn.blocks:
        term = block.terminator
        succ[block.label] = list(term.labels) if term else []
    return succ


def predecessors(succ: dict[str, list[str]]) -> dict[str, list[str]]:
    pred = {label: [] for label in succ}
    for src, dests in succ.items():
        for dest in dests:
            pred[dest].append(src)
    return pred


def _dominator_sets(succ: dict[str, list[str]], entry: str) -> dict[str, set]:
    pred = predecessors(succ)
    order = _reverse_postorder(succ, entry)
    # None stands for "every block" until a label's first visit, so a long
    # CFG does not start from one full set per block.
    dom = dict.fromkeys(order)
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry:
                continue
            preds = [dom[p] for p in pred[label] if dom.get(p) is not None]
            new = set.intersection(*preds) if preds else set()
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


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
        self.succ = successors(fn)
        self.pred = predecessors(self.succ)
        self.dom = _dominator_sets(self.succ, fn.entry.label)
        self.postdom = self._postdominators()
        self.reachable = set(self.dom)
        self.refresh_positions()
        self.loops = self._find_loops()

    def refresh_positions(self) -> None:
        """Re-index instruction positions after instructions were inserted."""
        self._pos: dict[int, tuple[str, int]] = {}
        for block in self.fn.blocks:
            for idx, instr in enumerate(block.instrs):
                self._pos[id(instr)] = (block.label, idx)

    def _postdominators(self) -> dict[str, set]:
        rsucc = {label: [] for label in self.succ}
        rsucc[VIRTUAL_EXIT] = []
        for block in self.fn.blocks:
            term = block.terminator
            if term is None or term.op == "ret":
                rsucc.setdefault(block.label, [])
                rsucc[VIRTUAL_EXIT].append(block.label)
        for src, dests in self.succ.items():
            for dest in dests:
                rsucc[dest].append(src)
        return _dominator_sets(rsucc, VIRTUAL_EXIT)

    def position(self, instr: Instr) -> tuple[str, int]:
        return self._pos[id(instr)]

    def dominates(self, a: Instr, b: Instr) -> bool:
        """Does instruction a dominate instruction b?"""
        ablock, aidx = self.position(a)
        bblock, bidx = self.position(b)
        if ablock == bblock:
            return aidx < bidx
        return ablock in self.dom.get(bblock, ())

    def postdominates(self, a: Instr, b: Instr) -> bool:
        """Does instruction a postdominate instruction b?"""
        ablock, aidx = self.position(a)
        bblock, bidx = self.position(b)
        if ablock == bblock:
            return aidx > bidx
        return ablock in self.postdom.get(bblock, ())

    def block_postdominates(self, a: str, b: str) -> bool:
        return a in self.postdom.get(b, ())

    def _find_loops(self) -> list[Loop]:
        loops = []
        for src, dests in self.succ.items():
            if src not in self.reachable:
                continue
            for header in dests:
                if header not in self.dom.get(src, ()):
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
