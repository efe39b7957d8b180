"""Command-line driver tests: exit codes, stats output, corpus, fuzz."""

import json

import pytest

from conftest import (
    CLI_MAIN,
    DEEP_SHAPES,
    FORGED_TAGS,
    RECURSIVE_PIR,
    STRUCTURAL_DEFECTS,
    corpus_text,
    deep_program,
    forged_pointer_program,
    python_isolated,
)
from prismbox.cli import load_corpus, main, run_corpus_case


@pytest.fixture
def pir(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestRun:
    def test_ok_run_prints_ret(self, pir, capsys):
        path = pir("ll.pir", corpus_text("linked_list.pir"))
        assert main(["run", path, "5", "--qpad", "16"]) == 0
        assert "ret" in capsys.readouterr().out

    def test_bounds_violation_exit_2(self, pir, capsys):
        path = pir("ps.pir", corpus_text("partial_struct.pir"))
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["reason"] == "upper_bound"

    def test_escape_violation_exit_3(self, pir):
        path = pir("ee.pir", corpus_text("end_escape.pir"))
        assert main(["run", path]) == 3

    def test_parse_error_exit_4(self, pir, capsys):
        path = pir("bad.pir", "fn @main( {\n")
        assert main(["run", path]) == 4
        assert "error" in capsys.readouterr().err

    def test_validation_error_exit_4(self, pir):
        path = pir("bad.pir",
                    "fn @main() {\n^entry:\n  %y = add %x, 1\n  ret %y\n}\n")
        assert main(["run", path]) == 4

    def test_missing_file_exit_4(self):
        assert main(["run", "/nonexistent/nothing.pir"]) == 4

    def test_stats_to_stdout(self, pir, capsys):
        path = pir("ll.pir", corpus_text("linked_list.pir"))
        assert main(["run", path, "100", "--qpad", "16", "--stats"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["schema"] == 1
        assert report["dynamic_checks"] == 0
        assert report["static_checks_inserted"] == (
            report["active_checks"] + report["elided_by"]["qpad"]
            + report["elided_by"]["combine"])

    def test_stats_to_file(self, pir, tmp_path):
        path = pir("cc.pir", corpus_text("cost_compare.pir"))
        out = tmp_path / "stats.json"
        assert main(["run", path, "--qpad", "8", "--stats", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "prism" and report["q"] == 8
        assert report["sa_fetch_fraction"] == 0.0
        assert isinstance(report["sites"], list) and report["sites"]

    def test_trace_flag(self, pir, capsys):
        path = pir("bw.pir", corpus_text("backward.pir"))
        assert main(["run", path, "--trace", "--no-opt"]) == 0
        out = capsys.readouterr().out
        assert sum("sa-fetch" in line for line in out.splitlines()) == 7

    def test_no_opt_and_opt_selection(self, pir, capsys):
        path = pir("ll.pir", corpus_text("linked_list.pir"))
        assert main(["run", path, "10", "--qpad", "16", "--no-opt",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["elided_by"]["qpad"] == 0
        assert main(["run", path, "10", "--qpad", "16", "--opt", "qpad",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["elided_by"]["qpad"] > 0

    def test_unknown_opt_rejected(self, pir):
        path = pir("ll.pir", corpus_text("linked_list.pir"))
        with pytest.raises(SystemExit):
            main(["run", path, "--opt", "frobnicate"])

    def test_differential_flag(self, pir, capsys):
        path = pir("ni.pir", corpus_text("negative_index.pir"))
        assert main(["run", path, "-3", "--differential"]) == 2
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["ok"] is True

    @pytest.mark.parametrize("mode", ["prism", "pow2", "prism32"])
    def test_modes_accepted(self, pir, mode):
        path = pir("ll.pir", corpus_text("linked_list.pir"))
        assert main(["run", path, "20", "--mode", mode]) == 0


class TestCorpus:
    def test_full_corpus_passes(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8 and "FAIL" not in out

    def test_single_case(self, capsys):
        assert main(["corpus", "negative_index"]) == 0
        assert "negative_index" in capsys.readouterr().out

    def test_unknown_case_fails(self, capsys):
        assert main(["corpus", "no_such_case"]) != 0

    def test_matrix_lists_runs(self, capsys):
        assert main(["corpus", "linked_list", "--matrix"]) == 0
        out = capsys.readouterr().out
        assert out.count("q=") >= 7

    def test_list_cases(self, capsys):
        assert main(["corpus", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("linked_list", "backward", "end_escape"):
            assert name in out

    def test_expectation_mismatch_detected(self):
        spec = load_corpus()
        case = next(c for c in spec["cases"] if c["name"] == "off_by_one")
        case["runs"][0]["expect"]["exit"] = 0  # deliberately wrong
        assert run_corpus_case(case)


class TestFuzz:
    def test_small_campaign_exit_0(self, capsys):
        assert main(["fuzz", "--seed", "3", "--count", "25"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] == 25 and summary["mismatches"] == []

    def test_count_zero(self, capsys):
        assert main(["fuzz", "--count", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] == 0

    def test_modes_and_configs(self, capsys):
        assert main(["fuzz", "--count", "10", "--mode", "pow2", "--qpad",
                     "8", "--config", "one_oob"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] == 10


def test_deep_recursion_exits_1_without_traceback(pir, capsys):
    path = pir("rec.pir", RECURSIVE_PIR)
    assert main(["run", path, "2000"]) == 1
    err = capsys.readouterr().err
    assert "call depth" in err and "Traceback" not in err


@pytest.mark.parametrize("shape,n", DEEP_SHAPES)
def test_deep_program_runs_without_traceback(pir, capsys, shape, n):
    path = pir("deep.pir", deep_program(shape, n))
    assert main(["run", path]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == "ret 0" and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(STRUCTURAL_DEFECTS))
def test_structural_error_exits_4_without_traceback(pir, name):
    text, word = STRUCTURAL_DEFECTS[name]
    proc = python_isolated(CLI_MAIN, "run", pir("bad.pir", text))
    assert proc.returncode == 4
    assert word in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", sorted(FORGED_TAGS))
def test_forged_pointer_exits_1_without_traceback(pir, capsys, mode):
    path = pir("forged.pir", forged_pointer_program(FORGED_TAGS[mode]))
    assert main(["run", path, "--mode", mode]) == 1
    err = capsys.readouterr().err
    assert "unmapped address 0x1000" in err and "Traceback" not in err


# Runs `python -c CODE ARGS` in a child of its own and prints the child's
# exit code, output and peak RSS in kB as JSON.  A child started straight
# from the test process would report that process's memory: a forked child
# starts with its parent's pages resident, and the peak survives exec.
PEAK_RSS = """
import json, resource, subprocess, sys
proc = subprocess.run([sys.executable, "-c", *sys.argv[1:]],
                      capture_output=True, text=True)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"code": proc.returncode, "out": proc.stdout,
                  "err": proc.stderr, "maxrss_kb": usage.ru_maxrss}))
"""


def test_large_allocation_maps_pages_lazily(pir):
    # 100 MB mapped, one page written near its end: only the written pages
    # take memory (zero-filling every page peaked at ~113 MB).
    path = pir("big.pir", "fn @main() {\n^entry:\n  %a = alloc 100000000\n"
                          "  %p = gep %a, 99999992\n  store %p, 8, 77\n"
                          "  %v = load %p, 8\n  ret %v\n}\n")
    proc = python_isolated(PEAK_RSS, CLI_MAIN, "run", path, timeout=60)
    child = json.loads(proc.stdout)
    assert child["code"] == 0, child["err"]
    assert child["out"].strip() == "ret 77"
    assert child["maxrss_kb"] < 48 * 1024
