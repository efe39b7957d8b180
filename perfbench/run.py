"""prismbox benchmark: one workload, one seed, one worker, closed loop.

    python3 perfbench/run.py --workload fuzz_small --seed 0 --seconds 40 --trace 0

Run it from the root of a prismbox checkout; it imports the package from
``src/`` and nothing else.  Each case starts after the previous one ends.
The run checks every output (see workloads.py), prints every metric with its
unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of spec.py.  ``--trace 1`` runs
the same cases twice, untraced and then traced, reports the per-layer
metrics (self times from the traced pass, exact counts from a fixed prefix
of cases, tracing overhead as the ratio of the two passes) and writes the
report and the prefix cases' spans to ``.perfbench/`` in the checkout.

Seeds pick disjoint sets of programs, so a seed not used while a change was
written confirms a claim made on others.  The exit code is 1 when an
output check fails and 2 when no prismbox sources are found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import re
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import spec
from speed import SpeedReference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
UNTRACED_SHARE = 0.45       # of --seconds, in a traced run
SELF_TIMES = {
    "fuzz.generate_us": "fuzz.generate",
    "ir.parse_us": "ir.parse",
    "verify.validate_us": "verify.validate",
    "analysis.cfg_us": "analysis.cfg",
    "instrument.instrument_us": "instrument.instrument",
    "vm.checks_us": "vm.checks",
    "vm.oracle_us": "vm.oracle",
    "oracle.differential_us": "oracle.differential",
}
HISTOGRAMS = ("coverage.", "oracle.verdict.", "oracle.exit.")


def fresh_import() -> float:
    """Import prismbox from scratch, as a new process would; return seconds."""
    for name in [m for m in sys.modules
                 if m == "prismbox" or m.startswith("prismbox.")]:
        del sys.modules[name]
    re.purge()      # module-level regexes are compiled again, not cached
    start = perf_counter()
    package = importlib.import_module("prismbox")
    seconds = perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "prismbox":
        raise SystemExit(f"perfbench: imported prismbox from "
                         f"{package.__file__}, not from {SRC}")
    return seconds


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per(pools, name, scale=1e6) -> float:
    seconds, count = pools.get(name, (0.0, 0))
    return seconds / count * scale if count else 0.0


def end_to_end(run, setup: list[float], scaled: bool) -> dict:
    times = run.case_times(scaled)
    deciles = statistics.quantiles(times, n=10) if len(times) > 1 else times * 9
    pools = run.pooled(scaled)
    front_s, lines = pools["front"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
        "cases_per_s": len(times) / sum(times),
        "case_ms_p50": deciles[4] * 1e3,
        "case_ms_p90": deciles[8] * 1e3,
        "lines_per_s": lines / front_s,
        "checks_us_per_step": per(pools, "checks"),
        "oracle_us_per_step": per(pools, "oracle"),
    }


def end_to_end_samples(run, setup) -> dict:
    pools = run.pooled(False)
    n = len(run.numbers)
    return {"setup_s": len(setup), "peak_rss_mb": 1, "cases_per_s": n,
            "case_ms_p50": n, "case_ms_p90": n, "lines_per_s": n,
            "checks_us_per_step": pools["checks"][1],
            "oracle_us_per_step": pools["oracle"][1]}


def per_layer(rec, traced, untraced, prefix) -> tuple[dict, dict]:
    """Per-layer metric values and their sample counts."""
    values = {name: 0.0 for name, *_ in spec.PER_LAYER}
    samples = dict.fromkeys(values, len(prefix))
    n = len(traced.numbers)
    selfs = rec.self_times(traced.case_factors())
    for metric, span in SELF_TIMES.items():
        values[metric] = selfs.get(span, 0.0)
        samples[metric] = n
    counts = Counter()
    for res in prefix:
        counts.update(res.counts)
    for name, total in counts.items():
        values[name] = (total if name.startswith(HISTOGRAMS)
                        else total / len(prefix))
    pools = traced.pooled()
    values["vm.dispatch_us_per_step"] = per(pools, "dispatch")
    if "prism_q0" in pools:
        q0_s, dynamic = pools["prism_q0"]
        values["checks.predicate_us"] = (
            (q0_s - pools["dispatch"][0]) / dynamic * 1e6)
        values["oracle.growth"] = (per(pools, "oracle")
                                   / per(pools, "oracle_small"))
    values["trace.overhead_frac"] = (
        statistics.fmean(traced.case_times())
        / statistics.fmean(untraced.case_times()) - 1)
    for name in ("vm.dispatch_us_per_step", "checks.predicate_us",
                 "oracle.growth", "trace.overhead_frac"):
        samples[name] = n
    return values, samples


def show(kind: str, values: dict, samples: dict, table, raw=None) -> None:
    for name, unit, *_ in table:
        extra = f", unscaled {raw[name]:.6g}" if raw else ""
        print(f"{kind} {name} = {values[name]:.6g} {unit} "
              f"(n={int(samples[name])}{extra})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "prismbox" / "__init__.py").is_file():
        print(f"perfbench: no prismbox sources under {SRC}; run from the "
              f"root of a prismbox checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = SpeedReference()
    raw_setup = []
    for _ in range(SETUP_REPEATS):
        ref.sample()
        raw_setup.append((ref.slot(), fresh_import()))
    ref.sample()
    setup = [s * ref.factor(slot) for slot, s in raw_setup]
    from workloads import Recorder, Run, Workload, text_digest

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "git": git_sha(), "platform": platform.platform(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    print("# env " + json.dumps(env))
    rec = Recorder()
    wl = Workload(args.workload, args.seed, rec, ref)
    gc.collect()
    run = Run(wl, ref)
    budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    done = run.timed(budget)
    passes = [run]
    rest = Run(wl, ref)             # complete the counted prefix, untimed
    rest.cases(done, wl.prefix)
    passes.append(rest)
    prefix = run.prefix + rest.prefix
    e2e = end_to_end(run, setup, scaled=True)
    e2e_raw = end_to_end(run, [s for _, s in raw_setup], scaled=False)
    e2e_n = end_to_end_samples(run, setup)
    digest = text_digest(r.text for r in prefix)

    if args.trace:
        traced = Run(wl, ref)
        with rec.tracing():
            traced.cases(0, done)
        passes.append(traced)
        layers, layers_n = per_layer(rec, traced, run, prefix)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]

    print(f"# cases attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6g} "
          f"check_failures={len(problems)} prefix={len(prefix)} "
          f"digest={digest}")
    show("end_to_end", e2e, e2e_n, spec.END_TO_END, e2e_raw)
    if args.trace:
        show("per_layer", layers, layers_n, spec.PER_LAYER)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        prefix_spans = [s for s in rec.spans if s[0] < wl.prefix]
        report = {"env": env, "digest": digest, "end_to_end": e2e,
                  "end_to_end_unscaled": e2e_raw,
                  "per_layer": layers, "samples": {**e2e_n, **layers_n},
                  "moves": {n: m for n, _, _, m in spec.PER_LAYER},
                  "spans": ["case id parent name start end".split()]
                  + prefix_spans}
        out = out_dir / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(report))
        print(f"# spans and report written to {out}")
    for problem in problems[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    values = layers if args.trace else e2e
    units = {name: unit for name, unit, *_ in table}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
