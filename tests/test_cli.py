"""Command-line driver tests: exit codes, stats output, corpus, fuzz."""

import json

import pytest

from conftest import (
    CLI_MAIN,
    ChecksWrongReturn,
    DEEP_SHAPES,
    ENTRY_PHI_PIR,
    FORGED_TAGS,
    RECURSIVE_PIR,
    REPEATED_PRED_PHI_PIR,
    STRUCTURAL_DEFECTS,
    corpus_text,
    deep_program,
    forged_pointer_program,
    python_isolated,
)
from prismbox import cli, oracle
from prismbox.cli import load_corpus, main, run_corpus_case
from prismbox.heap import MAX_ALLOC


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

    def test_differential_mismatch_exits_1(self, pir, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "VM", ChecksWrongReturn)
        path = pir("ll.pir", corpus_text("linked_list.pir"))
        assert main(["run", path, "5", "--differential"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out[out.index("{"):])["ok"] is False
        assert err == "differential mismatch: return-value-mismatch\n"

    # Each program breaks a static rule in code that never runs on input 0.
    STATIC_ERRORS = {
        "value_less_op_named": (
            "fn @main(%n: int) {\n^entry:\n  condbr %n, ^a, ^b\n"
            "^a:\n  %x = br ^b\n^b:\n  ret 0\n}\n",
            "error: line 5: br has no value for %x"),
        "extern_arg_count": (
            "extern @new kind=alloc\nfn @main(%n: int) {\n^entry:\n"
            "  condbr %n, ^a, ^b\n^a:\n  %p = extern @new(8, 8)\n"
            "  ret 0\n^b:\n  ret 0\n}\n",
            "error: @main: extern @new with 2 args, expected 1 (line 6)"),
        "entry_block_phi": (
            ENTRY_PHI_PIR, "error: @main ^entry: phi in the entry block "
                           "(line 3)"),
        "repeated_predecessor_phi": (
            REPEATED_PRED_PHI_PIR, "error: @main ^b: phi %x has two values "
                                   "from ^entry (line 5)"),
    }

    @pytest.mark.parametrize("name", sorted(STATIC_ERRORS))
    def test_static_error_exits_4(self, pir, capsys, name):
        text, message = self.STATIC_ERRORS[name]
        assert main(["run", pir("bad.pir", text), "0"]) == 4
        assert capsys.readouterr().err == message + "\n"

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


    def test_every_failed_expectation_reported(self, monkeypatch, capsys):
        spec = load_corpus()
        (case,) = spec["cases"] = [c for c in spec["cases"]
                                   if c["name"] == "linked_list"]
        case["runs"] = [{"expect": {
            "exit": 1, "active_checks": -1, "dynamic_checks": -1,
            "sa_fetches_max": -1, "sa_fetches_min": 10**9}}]
        monkeypatch.setattr(cli, "load_corpus", lambda: spec)
        assert main(["corpus"]) == 1
        first, *lines = capsys.readouterr().out.splitlines()
        assert first == "FAIL linked_list"
        label = "  linked_list mode=prism q=0 opt=all: "
        assert all(line.startswith(label) for line in lines)
        assert [line[len(label):].split(",")[-1] for line in lines] == [
            " expected 1", " expected -1", " expected -1",
            " expected at most -1", " expected at least 1000000000"]


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


# name -> a command line with a usage error; FILE is a valid program and
# MISSING a path in a directory that does not exist.
USAGE_ERRORS = {
    "unknown_mode": ["run", "FILE", "--mode", "bogus"],
    "non_integer_input": ["run", "FILE", "x"],
    "unknown_opt": ["run", "FILE", "--opt", "frob"],
    "negative_qpad_run": ["run", "FILE", "--qpad", "-1"],
    "negative_qpad_fuzz": ["fuzz", "--qpad", "-1"],
    "unwritable_stats": ["run", "FILE", "--stats", "MISSING"],
    "unknown_corpus_case": ["corpus", "nosuch"],
    "negative_count": ["fuzz", "--count", "-3"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_exits_4_with_one_error_line(pir, tmp_path, capsys,
                                                 name):
    paths = {"FILE": pir("ll.pir", corpus_text("linked_list.pir")),
             "MISSING": str(tmp_path / "missing" / "x.json")}
    try:    # any other exception would end `prismbox` in a traceback
        code = main([paths.get(a, a) for a in USAGE_ERRORS[name]])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 4, err
    assert len([line for line in err.splitlines()
                if line.startswith("error:")]) == 1


@pytest.mark.parametrize("mode", sorted(FORGED_TAGS))
def test_forged_pointer_exits_1_without_traceback(pir, capsys, mode):
    path = pir("forged.pir", forged_pointer_program(FORGED_TAGS[mode]))
    assert main(["run", path, "--mode", mode]) == 1
    err = capsys.readouterr().err
    assert "unmapped address 0x1000" in err and "Traceback" not in err


@pytest.mark.parametrize("q", [0, 8])
def test_largest_allocation_exits_0_or_1_without_traceback(pir, capsys, q):
    # A prism object, its q padding and its 8-byte SA must fit one 4GB
    # frame: MAX_ALLOC - q - 8 bytes runs and one byte more is a VM error.
    fits = MAX_ALLOC - q - 8
    for size, code in [(fits, 0), (fits + 1, 1)]:
        path = pir("big.pir", f"fn @main() {{\n^entry:\n  %a = alloc {size}"
                              f"\n  ret 0\n}}\n")
        assert main(["run", path, "--qpad", str(q)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0 or "4GB frame" in err


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
