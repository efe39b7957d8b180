"""Print the front end's cost per line on small and large programs.

Usage, from the repository root:

    PYTHONPATH=src python tools/front_scaling.py [--rounds N]

The front end is `ir.parse` followed by `instrument.instrument` at prism
q=8, with every optimization.  It is timed on two sets of `mixed` programs
(16 allocations each) of about the same total size: compile_large-sized
programs of 600-899 lines (up to 400 ops), and one program of 11,000-12,999
lines (up to 6400 ops).  Each round times both sets, in turn; the medians
over the rounds are printed in µs per line, with the median over the rounds
of large/small.  A front end linear in program size prints a ratio near 1.
"""

from __future__ import annotations

import argparse
import gc
import statistics
from itertools import count
from time import perf_counter

from prismbox import fuzz
from prismbox.instrument import instrument
from prismbox.ir import parse
from prismbox.tagging import Mode

SMALL = fuzz.FuzzConfig("mixed", max_allocs=16, max_ops=400)
LARGE = fuzz.FuzzConfig("mixed", max_allocs=16, max_ops=6400)


def programs(config, lines: range, seeds, total: int) -> list[str]:
    """The first programs from `seeds` with a line count in `lines`, until
    they hold at least `total` lines."""
    texts = []
    for seed in seeds:
        text = fuzz.generate(seed, config)[0]
        if text.count("\n") in lines:
            texts.append(text)
            if sum(t.count("\n") for t in texts) >= total:
                return texts


def us_per_line(texts: list[str]) -> float:
    gc.collect()
    start = perf_counter()
    for text in texts:
        instrument(parse(text), Mode("prism", 8))
    return (perf_counter() - start) / sum(t.count("\n") for t in texts) * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    large = programs(LARGE, range(11000, 13000), count(0), 1)
    small = programs(SMALL, range(600, 900), count(20000),
                     large[0].count("\n"))
    us_per_line(small)          # warm up: op rules are compiled on first use
    rounds = [(us_per_line(small), us_per_line(large))
              for _ in range(args.rounds)]
    for name, texts, i in (("~800-line", small, 0), ("~12k-line", large, 1)):
        lines = sum(t.count("\n") for t in texts)
        print(f"{name} programs: {len(texts)}, {lines} lines, "
              f"{statistics.median(r[i] for r in rounds):.2f} us/line")
    ratio = statistics.median(b / a for a, b in rounds)
    print(f"ratio ~12k/~800: {ratio:.3f} (median of {args.rounds} rounds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
