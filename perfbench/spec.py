"""What the prismbox benchmark measures, and the BENCHMARK.json built from it.

Every workload reports every metric below, so each metric means the same
thing on each workload:

* a *case* is one unit of closed-loop work: one fuzz program generated and
  run differentially (fuzz_small), one large program parsed and instrumented
  (compile_large), or one round of the six linked-list runs (walk);
* the *front end* is ``ir.parse`` plus ``instrument.instrument`` (validation
  and CFG construction included);
* per-step VM costs are the time of ``VM.run`` over the guest steps it took.

Count metrics come from a fixed prefix of each seed's cases (``PREFIX`` in
workloads.py), so two runs on one seed give identical counts however many
cases fit in the time.  Size and counter metrics are means per prefix case;
``coverage.*``, ``oracle.verdict.*`` and ``oracle.exit.*`` are numbers of
prefix cases (``coverage.active``: cases with a site left at status Active;
``instrument.active``: executing sites, lower-bound-dropped ones included;
``widened``: access sites grown by a variable-window combine;
``oracle.verdict.other``: any mismatch).  Timings are self time (span
duration minus its child spans) in microseconds per case.  All times are
scaled for host speed (see speed.py).  A layer a workload never calls
reads 0.

Run ``python3 perfbench/spec.py`` from the repository root to rewrite
BENCHMARK.json from these tables.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

WORKLOADS = {
    "fuzz_small": "criterion-5 campaign: ~30-line mixed programs cycled over "
                  "9 mode x q pairs; the front end takes ~70% of a case and "
                  "the two VMs ~25%",
    "compile_large": "600-899-line mixed programs (16 allocs, up to 400 ops) "
                     "at prism q=8: front-end cost that grows faster than "
                     "program size; verdicts checked untimed",
    "walk": "linked_list.pir, N=2000, checks backend in 3 modes and oracle "
            "backend: VM dispatch, check predicate and oracle record lookup "
            "dominate; front end under 1%",
}

# name, unit, better, bound, meaning
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median time of a fresh import of the prismbox package"),
    ("peak_rss_mb", "MB", "lower", 0.15, "peak resident set size of the run"),
    ("cases_per_s", "1/s", "higher", 0.25,
     "cases completed per second of case time, one worker"),
    ("case_ms_p50", "ms", "lower", 0.25, "median case time"),
    ("case_ms_p90", "ms", "lower", 0.25, "90th percentile case time"),
    ("lines_per_s", "lines/s", "higher", 0.25,
     "program lines through the front end per second of front-end time"),
    ("checks_us_per_step", "us", "lower", 0.25,
     "checks-backend VM time per guest step (walk: the three q=0 modes)"),
    ("oracle_us_per_step", "us", "lower", 0.25,
     "oracle-backend VM time per guest step (walk: N=2000)"),
]

_FRONT = ("fuzz_small: cases_per_s, case_ms_*, lines_per_s; compile_large: "
          "the same, by more; walk: none")
_OPTS = ("counts; explain changes in checks_us_per_step and checks.dynamic "
         "on fuzz_small and compile_large")
_VM = ("fuzz_small: cases_per_s, case_ms_* (~25% of a case), "
       "checks_us_per_step, oracle_us_per_step")
_WALK_CHECKS = "walk: checks_us_per_step, case_ms_p50"
_ORACLE = ("walk: oracle_us_per_step, case_ms_p90, peak_rss_mb; fuzz_small: "
           "oracle_us_per_step")
_COUNT = "count; explains checks_us_per_step and oracle_us_per_step"
_HIST = ("count; shows which paths the generator reaches (fuzz_small, "
         "compile_large); moves no timing")

# name, unit, better, which end-to-end metric it should move on which workload
PER_LAYER = [
    ("fuzz.generate_us", "us", "lower", "fuzz_small: cases_per_s, case_ms_*"),
    ("ir.parse_us", "us", "lower", _FRONT),
    ("ir.lines", "count", "lower", "input size; " + _FRONT),
    ("verify.validate_us", "us", "lower", _FRONT),
    ("analysis.cfg_us", "us", "lower", _FRONT),
    ("instrument.instrument_us", "us", "lower", _FRONT),
    ("instrument.instrs_after", "count", "lower",
     "IR size after instrumentation; " + _FRONT),
    ("instrument.sites", "count", "lower", _OPTS),
    ("instrument.active", "count", "lower", _OPTS),
    ("instrument.elided_qpad", "count", "higher", _OPTS),
    ("instrument.elided_combine", "count", "higher", _OPTS),
    ("instrument.elided_dominance", "count", "higher", _OPTS),
    ("instrument.lower_dropped", "count", "higher", _OPTS),
    ("instrument.hoisted", "count", "higher", _OPTS),
    ("instrument.widened", "count", "higher", _OPTS),
    ("vm.checks_us", "us", "lower", _VM),
    ("vm.oracle_us", "us", "lower", _VM),
    ("vm.steps", "count", "lower", _VM),
    ("vm.dispatch_us_per_step", "us", "lower",
     "walk: checks_us_per_step (prism q=16 run, no dynamic checks)"),
    ("checks.predicate_us", "us", "lower",
     _WALK_CHECKS + " ((t(q=0) - t(q=16)) / checks.dynamic, prism)"),
    ("oracle.differential_us", "us", "lower",
     "fuzz_small: cases_per_s, case_ms_* (verdict logic, VMs excluded)"),
    ("oracle.growth", "ratio", "lower",
     "walk: oracle_us_per_step (us/step at N=2000 over N=500; 1 is flat)"),
    ("heap.records", "count", "lower", _ORACLE),
    ("heap.pages", "count", "lower", _ORACLE),
    ("checks.dynamic", "count", "lower", _COUNT),
    ("checks.sa_fetches", "count", "lower", _COUNT),
    ("checks.xor_lower", "count", "lower", _COUNT),
    ("checks.aborts", "count", "lower", _COUNT),
    ("oracle.allowed_events", "count", "lower", _COUNT),
    ("coverage.active", "count", "higher", _HIST),
    ("coverage.elided_qpad", "count", "higher", _HIST),
    ("coverage.elided_combine", "count", "higher", _HIST),
    ("coverage.elided_dominance", "count", "higher", _HIST),
    ("coverage.lower_dropped", "count", "higher", _HIST),
    ("coverage.hoisted", "count", "higher", _HIST),
    ("coverage.widened", "count", "higher", _HIST),
    ("oracle.verdict.match", "count", "higher", _HIST),
    ("oracle.verdict.both-vm-error", "count", "lower", _HIST),
    ("oracle.verdict.early-abort-at-widened-site", "count", "lower", _HIST),
    ("oracle.verdict.other", "count", "lower", _HIST),
    ("oracle.exit.0", "count", "higher", _HIST),
    ("oracle.exit.2", "count", "higher", _HIST),
    ("oracle.exit.3", "count", "higher", _HIST),
    ("oracle.exit.none", "count", "lower", _HIST),
    ("trace.overhead_frac", "frac", "lower",
     "none; traced case time over untraced case time on the same cases, "
     "minus 1"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {out}")
