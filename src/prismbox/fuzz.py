"""Seeded generator of small guest programs plus the differential campaign.

Programs are closed SSA with a linear spine: heap and stack allocations,
constant and index-scaled address arithmetic, bounded counting loops,
pointer round-trips through memory cells, helper calls, and extern
boundary crossings.  Configurations control whether an out-of-bounds
operation is injected.
"""

from __future__ import annotations

import json
import multiprocessing
import random
from dataclasses import dataclass
from pathlib import Path

from .instrument import ALL_OPTS
from .oracle import differential
from .tagging import Mode

CONFIGS = ("in_bounds_only", "one_oob", "mixed")

ACCESS_SIZES = (1, 2, 4, 8)


@dataclass
class FuzzConfig:
    name: str = "mixed"
    max_allocs: int = 3
    max_ops: int = 8

    @property
    def oob_chance(self) -> float:
        if self.name == "in_bounds_only":
            return 0.0
        if self.name == "one_oob":
            return 1.0
        return 0.5


HELPERS = """\
fn @peek(%p: ptr) {
^entry:
  %v = load %p, 8
  ret %v
}
fn @poke(%p: ptr, %x: int) {
^entry:
  store %p, 8, %x
  ret 0
}
"""


class _Builder:
    def __init__(self, rng: random.Random, cfg: FuzzConfig):
        self.rng = rng
        self.cfg = cfg
        self.blocks: list[tuple[str, list[str]]] = []
        self.nblock = 0
        self.nval = 0
        self.objs: list[tuple[str, int]] = []   # (value name, size >= 8)
        self.acc = None
        self.params: list[int] = []
        self.used_helpers = False
        self.used_copy = False
        self.used_pure = False
        self._open_block()

    # ----------------------------------------------------------- low level

    def _open_block(self) -> str:
        label = f"b{self.nblock}"
        self.nblock += 1
        self.blocks.append((label, []))
        return label

    @property
    def cur(self) -> str:
        return self.blocks[-1][0]

    def emit(self, line: str) -> None:
        self.blocks[-1][1].append(f"  {line}")

    def fresh(self) -> str:
        self.nval += 1
        return f"%v{self.nval}"

    def bump_acc(self, value: str) -> None:
        nxt = self.fresh()
        self.emit(f"{nxt} = add {self.acc}, {value}")
        self.acc = nxt

    def new_param(self, value: int) -> str:
        self.params.append(value)
        return f"%p{len(self.params) - 1}"

    # --------------------------------------------------------------- pieces

    def op_alloc(self) -> None:
        rng = self.rng
        bucket = rng.random()
        if bucket < 0.6:
            size = rng.randrange(8, 96)
        elif bucket < 0.9:
            size = rng.randrange(96, 4096)
        else:
            size = rng.randrange(60000, 140000)  # straddles the frame split
        name = self.fresh()
        which = rng.random()
        if which < 0.7:
            self.emit(f"{name} = alloc {size}")
        elif which < 0.85:
            self.emit(f"{name} = stackalloc {size}")
        else:
            self.emit(f"{name} = alloca_dyn {size}")
        self.objs.append((name, size))

    def pick_obj(self) -> tuple[str, int]:
        # generate() allocates first, and every size is at least 8 bytes:
        # any object fits any access size.
        return self.rng.choice(self.objs)

    def op_const_access(self) -> None:
        name, size = self.pick_obj()
        asz = self.rng.choice(ACCESS_SIZES)
        off = self.rng.randrange(0, size - asz + 1)
        ptr = self.fresh()
        self.emit(f"{ptr} = gep {name}, {off}")
        if self.rng.random() < 0.5:
            out = self.fresh()
            self.emit(f"{out} = load {ptr}, {asz}")
            self.bump_acc(out)
        else:
            self.emit(f"store {ptr}, {asz}, {self.rng.randrange(0, 256)}")

    def op_param_index(self) -> None:
        name, size = self.pick_obj()
        asz = self.rng.choice((4, 8))
        limit = (size - asz) // asz
        idx = self.new_param(self.rng.randrange(0, limit + 1))
        ptr = self.fresh()
        self.emit(f"{ptr} = gep {name}, {idx}*{asz}")
        out = self.fresh()
        self.emit(f"{out} = load {ptr}, {asz}")
        self.bump_acc(out)

    def op_loop(self) -> None:
        name, size = self.pick_obj()
        asz = self.rng.choice((1, 4, 8))
        trips = self.rng.randrange(2, 9)
        while (trips - 1) * asz + asz > size:
            trips -= 1
        if trips < 2:
            return
        n = self.nblock
        header, body, exit_ = f"h{n}", f"h{n}b", f"h{n}x"
        ivar, inext, cond = self.fresh(), self.fresh(), self.fresh()
        pre = self.cur
        self.emit(f"br ^{header}")
        self.blocks.append((header, []))
        self.nblock += 1
        self.emit(f"{ivar} = phi [0, ^{pre}], [{inext}, ^{body}]")
        self.emit(f"{cond} = icmp lt {ivar}, {trips}")
        self.emit(f"condbr {cond}, ^{body}, ^{exit_}")
        self.blocks.append((body, []))
        ptr = self.fresh()
        self.emit(f"{ptr} = gep {name}, {ivar}*{asz}")
        self.emit(f"store {ptr}, {asz}, {self.rng.randrange(0, 200)}")
        self.emit(f"{inext} = add {ivar}, 1")
        self.emit(f"br ^{header}")
        self.blocks.append((exit_, []))

    def op_escape_roundtrip(self) -> None:
        cname, _ = self.pick_obj()
        oname, osize = self.pick_obj()
        delta = self.rng.randrange(0, osize - 8 + 1)
        derived = self.fresh()
        self.emit(f"{derived} = gep {oname}, {delta}")
        self.emit(f"storep {cname}, {derived}")
        loaded = self.fresh()
        self.emit(f"{loaded} = loadp {cname}")
        asz = self.rng.choice(ACCESS_SIZES)
        out = self.fresh()
        self.emit(f"{out} = load {loaded}, {asz}")
        self.bump_acc(out)

    def op_select(self) -> None:
        if len(self.objs) < 2:
            return
        (a, _), (b, _) = self.rng.sample(self.objs, 2)
        cond = self.fresh()
        self.emit(f"{cond} = icmp lt {self.acc}, {self.rng.randrange(1, 50)}")
        pick = self.fresh()
        self.emit(f"{pick} = select {cond}, {a}, {b}")
        out = self.fresh()
        self.emit(f"{out} = load {pick}, 8")
        self.bump_acc(out)

    def op_call(self) -> None:
        name, _ = self.pick_obj()
        self.used_helpers = True
        if self.rng.random() < 0.5:
            out = self.fresh()
            self.emit(f"{out} = call @peek({name})")
            self.bump_acc(out)
        else:
            self.emit(f"call @poke({name}, {self.rng.randrange(0, 999)})")

    def op_copy(self) -> None:
        if len(self.objs) < 2:
            return
        (a, sa), (b, sb) = self.rng.sample(self.objs, 2)
        n = self.rng.randrange(1, min(sa, sb) + 1)
        self.used_copy = True
        self.emit(f"extern @copy({a}, {b}, {n})")

    def op_pure(self) -> None:
        name, _ = self.pick_obj()
        self.used_pure = True
        out = self.fresh()
        self.emit(f"{out} = extern @blend({self.acc}, {name})")
        self.bump_acc(out)

    # ------------------------------------------------------------ bad pieces

    def op_oob(self) -> None:
        choice = self.rng.randrange(4)
        if choice == 0:
            self._oob_overshoot()
        elif choice == 1:
            self._oob_negative_index()
        elif choice == 2:
            self._oob_escape()
        else:
            self._oob_copy()

    def _oob_overshoot(self) -> None:
        name, size = self.pick_obj()
        asz = self.rng.choice(ACCESS_SIZES)
        # Mostly barely-past-the-end: small windows are the ones q-padding
        # and the power-of-two slack can legitimately absorb.
        if self.rng.random() < 0.6:
            off = size - asz + self.rng.randrange(1, 9)
        else:
            off = size - asz + self.rng.randrange(9, 64)
        ptr = self.fresh()
        self.emit(f"{ptr} = gep {name}, {max(off, 0)}")
        out = self.fresh()
        self.emit(f"{out} = load {ptr}, {asz}")
        self.bump_acc(out)

    def _oob_negative_index(self) -> None:
        name, _ = self.pick_obj()
        idx = self.new_param(-self.rng.randrange(1, 9))
        ptr = self.fresh()
        self.emit(f"{ptr} = gep {name}, {idx}*8")
        out = self.fresh()
        self.emit(f"{out} = load {ptr}, 8")
        self.bump_acc(out)

    def _oob_escape(self) -> None:
        cname, _ = self.pick_obj()
        name, size = self.pick_obj()
        bad = self.fresh()
        self.emit(f"{bad} = gep {name}, {size + self.rng.randrange(1, 64)}")
        self.emit(f"storep {cname}, {bad}")

    def _oob_copy(self) -> None:
        name, size = self.pick_obj()
        self.used_copy = True
        bad_len = size + self.rng.randrange(1, 64)
        if self.rng.random() < 0.3:
            bad_len = -self.rng.randrange(1, 16)  # negative length at the rim
        self.emit(f"extern @copy({name}, {name}, {bad_len})")

    # ---------------------------------------------------------------- render

    def render(self) -> str:
        header = []
        if self.used_copy:
            header.append("extern @copy kind=copy")
        if self.used_pure:
            header.append("extern @blend kind=pure")
        params = ", ".join(f"%p{i}: int" for i in range(len(self.params)))
        lines = list(header)
        if self.used_helpers:
            lines.append(HELPERS.rstrip())
        lines.append(f"fn @main({params}) {{")
        for label, body in self.blocks:
            lines.append(f"^{label}:")
            lines.extend(body)
        lines.append("}")
        return "\n".join(lines) + "\n"


def generate(seed: int, config: FuzzConfig | str = "mixed") -> tuple[str, list[int]]:
    """Deterministically generate one program and its inputs."""
    if isinstance(config, str):
        config = FuzzConfig(name=config)
    rng = random.Random(seed)
    b = _Builder(rng, config)
    n_allocs = rng.randrange(1, config.max_allocs + 1)
    for _ in range(n_allocs):
        b.op_alloc()
    seed_val = rng.randrange(0, 100)
    b.acc = b.fresh()
    b.emit(f"{b.acc} = add {seed_val}, 0")
    ops = [b.op_const_access, b.op_const_access, b.op_param_index,
           b.op_loop, b.op_escape_roundtrip, b.op_select, b.op_call,
           b.op_copy, b.op_pure]
    n_ops = rng.randrange(2, config.max_ops + 1)
    chosen = [rng.choice(ops) for _ in range(n_ops)]
    if rng.random() < config.oob_chance:
        chosen.insert(rng.randrange(len(chosen) + 1), b.op_oob)
    for op in chosen:
        op()
    freeable = [name for name, _ in b.objs if rng.random() < 0.15]
    b.emit(f"ret {b.acc}")
    # Frees would go after the final use; keep them ahead of ret instead.
    if freeable:
        last_label, body = b.blocks[-1]
        ret_line = body.pop()
        body.extend(f"  free {name}" for name in freeable)
        body.append(ret_line)
    return b.render(), list(b.params)


# ------------------------------------------------------------------ campaign

def _run_case(args) -> tuple:
    seed, kind, q, config_name, opts = args
    text, inputs = generate(seed, config_name)
    verdict = differential(text, Mode(kind, q), inputs, opts,
                           step_limit=200_000)
    exit_code = verdict.checks.exit_code if verdict.checks else None
    return seed, verdict.ok, verdict.reason, exit_code, verdict.allowed_events


def campaign(seed: int, count: int, mode: Mode, config: str = "mixed",
             opts: tuple = ALL_OPTS, out_dir: str | None = None,
             workers: int = 1) -> dict:
    """Differential-fuzz `count` programs; persist any mismatching case."""
    cases = [(seed + i, mode.kind, mode.q, config, tuple(opts))
             for i in range(count)]
    workers = min(workers, count)   # no process without a case to run
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_run_case, cases, chunksize=64)
    else:
        results = [_run_case(c) for c in cases]
    summary = {
        "seed": seed,
        "count": count,
        "mode": mode.kind,
        "q": mode.q,
        "config": config,
        "ok": 0,
        "violation_runs": 0,
        "allowed_events": 0,
        "mismatches": [],
    }
    for case_seed, ok, reason, exit_code, allowed in results:
        if ok:
            summary["ok"] += 1
        else:
            summary["mismatches"].append({"seed": case_seed, "reason": reason})
            if out_dir is not None:
                path = Path(out_dir)
                path.mkdir(parents=True, exist_ok=True)
                text, inputs = generate(case_seed, config)
                (path / f"mismatch_{case_seed}.pir").write_text(text)
                (path / f"mismatch_{case_seed}.json").write_text(
                    json.dumps({"seed": case_seed, "inputs": inputs,
                                "reason": reason}, indent=2))
        if exit_code not in (0, None):
            summary["violation_runs"] += 1
        summary["allowed_events"] += allowed
    return summary
