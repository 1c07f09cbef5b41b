import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cluster_forge import cli, exact
from cluster_forge.cli import build_parser, main
from cluster_forge.configuration import Configuration
from cluster_forge.exact import (
    HALF,
    QualityTable,
    build_quality_table,
    cached_quality_table,
    clear_table_cache,
)
from cluster_forge.montecarlo import threshold_experiment


STATIC_03_SWEEP = """\
# cluster-forge v0.1.0 quality
n,quality
1,1.0
2,0.6
3,1.18
4,0.9858
5,1.3335399999999997
6,1.2531474
7,1.4707806399999994
8,1.4541403523999998
9,1.5858997145199993
10,1.6113376270811997
11,1.7050760931512792
12,1.74914424477694
13,1.811801457578356
14,1.8710994233056621
15,1.9108922467188574
16,1.9813937632463916
17,1.9723972709456101
18,2.0668055521729927
19,2.0752514518969596
20,2.1611129610322153
21,2.168954786859233
22,2.255112292203995
23,2.2571007061116983
24,2.3461263832969235
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


REFERENCES = Path(__file__).resolve().parents[1] / "benchmarks" / "references.json"


def benchmark_references() -> dict:
    if not REFERENCES.is_file():
        pytest.skip("benchmarks/references.json is absent")
    return json.loads(REFERENCES.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("step, argv", [
    ("quality-static", ["quality", "--strategy", "static", "--n-max", "32"]),
    ("validate", ["validate"]),
])
def test_benchmark_static_outputs_are_pinned(capsys, step, argv):
    """The benchmark's deterministic steps that run ``static``, byte for
    byte."""
    expected = benchmark_references()["steps"][step]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == expected


@pytest.mark.parametrize("seed", range(10))
def test_benchmark_seeded_static_outputs_are_pinned(capsys, seed):
    """The benchmark's ``static`` Monte Carlo step and its threshold
    experiment at the recorded seeds, byte for byte."""
    expected = benchmark_references()["seeded"][str(seed)]
    assert main(["mc", "--strategy", "static", "--n", "64", "--trials", "2048",
                 "--seed", str(seed), "--threads", "1"]) == 0
    assert sha256(capsys.readouterr().out) == expected["mc-static"]
    report = threshold_experiment(8, Fraction(137, 2048), 1, block_size=8, trials=512,
                                  seed=seed)
    assert sha256(json.dumps(report.to_dict(), sort_keys=True)) == expected["threshold"]


class TestQuality:
    def test_modesty_sweep_contains_reference_row(self, capsys):
        code, out = run(capsys, "quality", "--strategy", "modesty", "--n-max", "20", "--ps", "1/2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# cluster-forge v0.1.0 quality"
        assert lines[1] == "n,quality"
        assert "4,13/8" in lines

    def test_json_format(self, capsys):
        code, out = run(capsys, "quality", "--strategy", "greed", "--n-max", "4",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "cluster-forge.quality/1"
        assert {"n": "4", "quality": "3/2"} in payload["rows"]

    def test_all_curves(self, capsys):
        code, out = run(capsys, "quality", "--strategy", "all", "--n-max", "10")
        assert code == 0
        header = out.splitlines()[1].split(",")
        assert header == ["n", "optimal", "modesty", "greed", "static_bound", "greed_asymptotic"]

    def test_float_ps_path(self, capsys):
        code, out = run(capsys, "quality", "--strategy", "modesty", "--n-max", "4",
                        "--ps", "0.5")
        assert code == 0
        assert "4,1.625" in out

    def test_static_float_sweep_is_unchanged(self, capsys):
        """The two-stage walk on the float path, byte for byte as recorded
        before its process states were made cheap."""
        code, out = run(capsys, "quality", "--strategy", "static", "--ps", "0.3",
                        "--n-max", "24")
        assert code == 0
        assert out == STATIC_03_SWEEP

    def test_static_strategy_sweep(self, capsys):
        code, out = run(capsys, "quality", "--strategy", "static", "--n-max", "8",
                        "--n-min", "8")
        assert code == 0
        assert "8,649/256" in out


class TestBounds:
    def test_single_row(self, capsys):
        code, out = run(capsys, "bounds", "--n", "10")
        assert code == 0
        row = out.splitlines()[-1].split(",")
        assert row[0] == "10"
        assert row[-1] == "4"  # 10/5 + 2

    def test_sweep_has_lower_below_upper(self, capsys):
        code, out = run(capsys, "bounds", "--n-min", "8", "--n-max", "14")
        assert code == 0
        from fractions import Fraction

        for line in out.splitlines()[2:]:
            n, modesty, lower, exact_q, razor2, corollary = line.split(",")
            assert Fraction(lower) <= Fraction(exact_q) <= Fraction(razor2)


class TestRazor:
    def test_upper_bound_column_non_increasing(self, capsys):
        from fractions import Fraction

        code, out = run(capsys, "razor", "--n", "12", "--r-max", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "n,r,razor_quality,razor_attempts,upper_bound"
        uppers = [Fraction(line.split(",")[-1]) for line in lines[3:]]
        assert all(x >= y for x, y in zip(uppers, uppers[1:]))

    def test_size_sweep_mode(self, capsys):
        code, out = run(capsys, "razor", "--n-min", "4", "--n-max", "8",
                        "--r-min", "2", "--r-max", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[3:]]
        assert [r[0] for r in rows] == ["4", "5", "6", "7", "8"]

    def test_needs_some_n(self, capsys):
        assert main(["razor", "--r-max", "3"]) == 1


class TestMC:
    def test_json_report_and_reproducibility(self, capsys, tmp_path):
        args = ["mc", "--strategy", "modesty", "--n", "6", "--ps", "1/2",
                "--trials", "2000", "--seed", "5", "--threads", "1"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["schema"] == "cluster-forge.mc/1"
        assert payload["trials"] == 2000

    def test_threshold_adds_wilson(self, capsys):
        code, out = run(capsys, "mc", "--strategy", "modesty", "--n", "4", "--ps", "1/2",
                        "--trials", "500", "--seed", "5", "--threads", "1",
                        "--threshold", "2")
        assert code == 0
        payload = json.loads(out)
        assert 0 <= payload["wilson_low"] <= payload["wilson_high"] <= 1

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--n", "-3"),
                                             ("--threads", "-2"), ("--threads", "0")])
    def test_bad_values_exit_one_with_one_error_line(self, capsys, flag, value):
        args = {"--strategy": "modesty", "--n": "4", "--trials": "10", "--seed": "1",
                "--threads": "1"}
        args[flag] = value
        code = main(["mc"] + [part for item in args.items() for part in item])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"cluster-forge: error: {flag} must be at least " \
                               f"{0 if flag == '--n' else 1}, got {value}\n"

    def test_threads_default_to_one(self):
        args = build_parser().parse_args(["mc", "--strategy", "modesty", "--n", "4",
                                          "--trials", "10", "--seed", "1"])
        assert args.threads == 1

    def test_empty_start_is_accepted(self, capsys):
        code, out = run(capsys, "mc", "--strategy", "greed", "--n", "0", "--trials", "3",
                        "--seed", "1", "--threads", "1")
        assert code == 0
        assert json.loads(out)["mean"] == 0.0


class TestWeave:
    def test_row_fields(self, capsys):
        code, out = run(capsys, "weave", "--n", "3", "--a", "2", "--ps", "0.5",
                        "--trials", "2000", "--seed", "3")
        assert code == 0
        header, row = out.splitlines()[1], out.splitlines()[2]
        assert header.startswith("n,a,ps,pi_s,p_s,hoeffding")
        fields = row.split(",")
        assert float(fields[3]) == pytest.approx(0.65625)
        assert fields[5] == ""  # a <= 1/ps: no valid bound

    def test_percolation_scan_comments(self, capsys):
        code, out = run(capsys, "percolation-scan", "--n-list", "50,100,200",
                        "--a", "2.0", "--ps-grid", "0.4,0.6")
        assert code == 0
        assert "# trend a=2.0 ps=0.4: decreasing" in out
        assert "# trend a=2.0 ps=0.6: increasing" in out
        assert "contains_threshold=True" in out


class TestOptimalTable:
    def test_write_and_reload(self, capsys, tmp_path):
        path = tmp_path / "table.tsv"
        code, _ = run(capsys, "optimal-table", "--n", "6", "--out", str(path))
        assert code == 0
        table = QualityTable.load(path)
        assert table.n == 6
        assert len(table) == 30  # 1 + partitions of 1..6 = 1+1+2+3+5+7+11

    def test_budget_exit_code(self, capsys, tmp_path):
        code = main(["optimal-table", "--n", "8", "--out", str(tmp_path / "t.tsv"),
                     "--max-entries", "5"])
        assert code == 2

    def test_budget_stops_the_build_before_any_dp_work(self, capsys, tmp_path, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("a block was enumerated")

        monkeypatch.setattr(exact, "_block_enumerator", no_enumeration)
        out = tmp_path / "t.tsv"
        code = main(["optimal-table", "--n", "30", "--max-entries", "5000", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "cluster-forge: budget exceeded: table build for N=30 exceeded budget of 5000 "
            "entries at vertex-count level 30\n")
        assert not out.exists()
        # the patched enumerator is the one a build within budget calls
        with pytest.raises(AssertionError, match="a block was enumerated"):
            main(["optimal-table", "--n", "30", "--out", str(out)])
        assert not out.exists()

    def test_rational_ps_required(self, capsys, tmp_path):
        code = main(["optimal-table", "--n", "4", "--ps", "0.5",
                     "--out", str(tmp_path / "t.tsv")])
        assert code == 1


def spy_loads(monkeypatch) -> list:
    """The paths ``QualityTable.load`` reads from now on, in order."""
    loads = []
    load = QualityTable.load.__func__

    def counting_load(cls, path):
        loads.append(path)
        return load(cls, path)

    monkeypatch.setattr(QualityTable, "load", classmethod(counting_load))
    return loads


class TestFlagsAndCaches:
    def test_bad_flag_value_exits_one(self, capsys):
        assert main(["quality", "--strategy", "modesty", "--n-max", "4", "--ps", "0"]) == 1
        assert main(["quality", "--strategy", "modesty", "--n-max", "4", "--ps", "junk"]) == 1

    def test_unknown_choice_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["quality", "--strategy", "bogus", "--n-max", "4"])
        assert err.value.code == 1

    def test_table_dir_cache(self, capsys, tmp_path, monkeypatch):
        clear_table_cache()  # a larger cached table would be saved under its own size
        monkeypatch.setenv("CLUSTER_FORGE_TABLE_DIR", str(tmp_path))
        code, first = run(capsys, "quality", "--strategy", "optimal", "--n-max", "6")
        assert code == 0
        cached = os.listdir(tmp_path)
        assert cached == ["table-n6-ps1-2.tsv"]
        code, second = run(capsys, "quality", "--strategy", "optimal", "--n-max", "6")
        assert code == 0
        assert first == second

    def test_a_larger_cached_table_is_saved_under_its_own_size(self, capsys, tmp_path,
                                                                  monkeypatch):
        clear_table_cache()
        expected = cached_quality_table(12).quality(Configuration.epr_pairs(12))
        monkeypatch.setenv("CLUSTER_FORGE_TABLE_DIR", str(tmp_path))
        assert run(capsys, "quality", "--strategy", "optimal", "--n-max", "6")[0] == 0
        assert os.listdir(tmp_path) == ["table-n12-ps1-2.tsv"]
        assert (tmp_path / "table-n12-ps1-2.tsv").read_text().startswith("N=12 ps=1/2\n")
        # a later process asking for up to 12 edges loads that file
        clear_table_cache()

        def no_build(*args, **kwargs):
            raise AssertionError("built a table that a file holds")

        monkeypatch.setattr(exact, "build_quality_table", no_build)
        loads = spy_loads(monkeypatch)
        code, out = run(capsys, "quality", "--strategy", "optimal", "--n-min", "7", "--n-max", "12")
        assert code == 0
        assert out.splitlines()[-1] == f"12,{expected}"
        assert loads == [str(tmp_path / "table-n12-ps1-2.tsv")]

    def test_each_table_file_is_read_once(self, capsys, tmp_path, monkeypatch):
        steps = [("quality", "--strategy", "all", "--n-max", "10"), ("bounds", "--n-max", "10")]
        clear_table_cache()
        built = [run(capsys, *argv) for argv in steps]
        clear_table_cache()
        build_quality_table(10).save(tmp_path / "table-n10-ps1-2.tsv")
        monkeypatch.setenv("CLUSTER_FORGE_TABLE_DIR", str(tmp_path))
        loads = spy_loads(monkeypatch)
        assert [run(capsys, *argv) for argv in steps] == built
        assert loads == [str(tmp_path / "table-n10-ps1-2.tsv")]
        # a file-loaded table never answers a library call
        builds = []
        build = exact.build_quality_table

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(exact, "build_quality_table", counting_build)
        assert cached_quality_table(10).n == 10
        assert builds == [(10, HALF)]

    def test_one_key_holds_only_its_largest_table(self, capsys, tmp_path, monkeypatch):
        clear_table_cache()
        for n in (6, 12):
            build_quality_table(n).save(tmp_path / f"table-n{n}-ps1-2.tsv")
        monkeypatch.setenv("CLUSTER_FORGE_TABLE_DIR", str(tmp_path))
        loads = spy_loads(monkeypatch)
        code, large = run(capsys, "quality", "--strategy", "optimal", "--n-max", "12")
        assert code == 0
        # the N=12 table covers the smaller request; the N=6 file is not read
        assert run(capsys, "quality", "--strategy", "optimal", "--n-max", "6") == (
            0, "\n".join(large.splitlines()[:8]) + "\n")
        assert loads == [str(tmp_path / "table-n12-ps1-2.tsv")]
        assert [table.n for table in exact._table_cache.values()] == [12]

    def test_a_float_ps_never_lists_or_reads_the_table_directory(self, capsys, tmp_path,
                                                                 monkeypatch):
        build_quality_table(8).save(tmp_path / "table-n8-ps1-2.tsv")
        monkeypatch.setenv("CLUSTER_FORGE_TABLE_DIR", str(tmp_path))
        listed = []
        listdir = os.listdir

        def counting_listdir(path=None):
            listed.append(path)
            return listdir(path)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        loads = spy_loads(monkeypatch)
        code, out = run(capsys, "quality", "--strategy", "optimal", "--ps", "0.5", "--n-max", "8")
        assert code == 0
        assert out.splitlines()[-1] == f"8,{float(Fraction(649, 256))!r}"
        assert listed == [] and loads == []
        assert listdir(tmp_path) == ["table-n8-ps1-2.tsv"]

    @pytest.mark.parametrize("name, ps, damage, message", [
        ("table-n8-ps1-2.tsv", HALF, lambda text: text[:text.index("\t", 300) + 2],
         "line 19 is malformed: '1^2,2^1\\t9'"),
        ("table-n30-ps1-2.tsv", HALF, lambda text: text,
         "header says N=8 ps=1/2, the file name N=30 ps=1/2"),
        ("table-n8-ps1-2.tsv", Fraction(1, 3), lambda text: text,
         "header says N=8 ps=1/3, the file name N=8 ps=1/2"),
    ], ids=["truncated", "mislabelled-n", "mislabelled-ps"])
    def test_a_corrupt_cached_table_exits_3(self, capsys, tmp_path, monkeypatch, name, ps,
                                            damage, message):
        """A cached table that does not parse, or whose header disagrees with
        its file name, is one error line and exit code 3, not a traceback."""
        clear_table_cache()
        path = tmp_path / name
        build_quality_table(8, ps).save(path)
        path.write_text(damage(path.read_text()))
        monkeypatch.setenv("CLUSTER_FORGE_TABLE_DIR", str(tmp_path))
        code = main(["quality", "--strategy", "optimal", "--n-max", "8"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"cluster-forge: corrupt table: {path}: ")
        assert captured.err.endswith(f"{message}\n") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, table_dir, message", [
        (["quality", "--strategy", "modesty", "--n-max", "3", "--out", "{missing}/x.csv"], None,
         "cannot write {missing}/x.csv"),
        (["quality", "--strategy", "greed", "--n-max", "3", "--format", "json",
          "--out", "{missing}/x.json"], None, "cannot write {missing}/x.json"),
        (["optimal-table", "--n", "3", "--out", "{missing}/x.tsv"], None,
         "cannot write {missing}/x.tsv"),
        (["quality", "--strategy", "optimal", "--n-max", "3"], "{missing}",
         "table directory {missing}"),
        (["bounds", "--n-max", "3"], "{missing}", "table directory {missing}"),
    ], ids=["quality-out", "quality-json-out", "optimal-table-out", "quality-table-dir",
            "bounds-table-dir"])
    def test_a_missing_directory_exits_one_with_one_error_line(self, capsys, tmp_path,
                                                                 monkeypatch, argv, table_dir,
                                                                 message):
        """A path in a directory that does not exist is one error line naming
        the path the user gave, and exit code 1, not a traceback."""
        missing = tmp_path / "missing"
        if table_dir is not None:
            monkeypatch.setenv("CLUSTER_FORGE_TABLE_DIR", table_dir.format(missing=missing))
            clear_table_cache()
        code = main([arg.format(missing=missing) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"cluster-forge: error: {message.format(missing=missing)}: "
                                f"{os.strerror(errno.ENOENT)}\n")
        assert os.listdir(tmp_path) == []

    def test_validate_runs_clean(self, capsys):
        code, out = run(capsys, "validate", "--n", "8")
        assert code == 0
        assert "FAIL" not in out

    def test_validate_says_when_it_caps_sizes(self, capsys):
        assert main(["validate", "--n", "12"]) == 0
        assert capsys.readouterr().err == ""
        code = main(["validate", "--n", "13"])
        captured = capsys.readouterr()
        assert code == 0
        assert "up to 13 edges" in captured.out
        assert "monotonicity suite on configurations up to 12 edges" in captured.out
        assert "note" not in captured.out
        assert "validate --n 13 checks" in captured.err
        assert "monotonicity suite up to 12 edges" in captured.err


class TestSmallSizes:
    @pytest.mark.parametrize("argv, message", [
        (["quality", "--strategy", "modesty", "--n-max", "3", "--n-min", "-2"],
         "--n-min must be at least 0, got -2"),
        (["quality", "--strategy", "greed", "--n-max", "3", "--step", "0"],
         "--step must be at least 1, got 0"),
        (["bounds", "--n-min", "0"], "--n-min must be at least 1, got 0"),
        (["bounds", "--n", "0"], "--n must be at least 1, got 0"),
        (["bounds", "--n-min", "5", "--n-max", "3"], "--n-max must be at least 5, got 3"),
        (["razor", "--n", "-1", "--r-max", "3"], "--n must be at least 0, got -1"),
        (["razor", "--n-min", "-1", "--n-max", "2", "--r-max", "3"],
         "--n-min must be at least 0, got -1"),
        (["razor", "--n", "4", "--r-min", "1", "--r-max", "3"], "--r-min must be at least 2, got 1"),
        (["validate", "--n", "-1"], "--n must be at least 0, got -1"),
        (["optimal-table", "--n", "4", "--max-entries", "-3", "--out", os.devnull],
         "--max-entries must be at least 0, got -3"),
        (["quality", "--strategy", "modesty", "--n-min", "5", "--n-max", "3"],
         "--n-max must be at least 5, got 3"),
        (["quality", "--strategy", "all", "--n-max", "0"], "--n-max must be at least 1, got 0"),
        (["razor", "--n", "4", "--r-min", "4", "--r-max", "3"], "--r-max must be at least 4, got 3"),
        (["razor", "--n", "4", "--r-max", "1"], "--r-max must be at least 2, got 1"),
        (["weave", "--n", "0", "--a", "3", "--ps", "0.5"], "cluster side must be at least 1"),
        (["weave", "--n", "5", "--a", "1", "--ps", "0.5"], "overhead factor must exceed 1"),
        (["weave", "--n", "5", "--a", "3", "--ps", "0.5", "--trials", "-1"],
         "--trials must be at least 0, got -1"),
        (["percolation-scan", "--n-list", "0", "--a", "2", "--ps-grid", "0.4"],
         "cluster side must be at least 1"),
        (["percolation-scan", "--n-list", "50", "--ps", "0.5", "--a-grid", "3,1"],
         "overhead factor must exceed 1"),
        (["weave", "--n", "5", "--a", "3", "--ps", "0.5", "--trials", "10", "--seed", "-1"],
         "--seed must be at least 0, got -1"),
        (["weave", "--n", "5", "--a", "3", "--ps", "0.5", "--trials", "10",
          "--seed", str(2 ** 128)], f"--seed must be below 2**128, got {2 ** 128}"),
        (["mc", "--strategy", "modesty", "--n", "4", "--trials", "10", "--seed", "-1"],
         "--seed must be at least 0, got -1"),
        (["mc", "--strategy", "modesty", "--n", "4", "--trials", "10", "--seed", str(2 ** 128)],
         f"--seed must be below 2**128, got {2 ** 128}"),
        (["mc", "--strategy", "modesty", "--n", "4", "--trials", "10", "--seed", "1",
          "--threshold", "-5"], "--threshold must be at least 0, got -5"),
        (["weave", "--n", "5", "--a", "inf", "--ps", "0.5"], "overhead factor must be finite"),
        (["percolation-scan", "--n-list", "5", "--a", "inf", "--ps-grid", "0.5"],
         "overhead factor must be finite"),
        (["percolation-scan", "--n-list", "5", "--ps", "0.5", "--a-grid", "inf"],
         "overhead factor must be finite"),
        (["weave", "--n", "2", "--a", "1e308", "--ps", "0.5"],
         "cross-chain length a n must be finite"),
        (["percolation-scan", "--n-list", "2", "--a", "1e308", "--ps-grid", "0.5"],
         "cross-chain length a n must be finite"),
        (["weave", "--n", "5", "--a", "1e300", "--ps", "0.5", "--trials", "10"],
         "attempt budget a n must be at most 2**63 - 1 to simulate"),
        (["bounds", "--n-max", "10", "--exact-max", "-3"],
         "--exact-max must be at least 0, got -3"),
    ], ids=["quality-n-min", "quality-step", "bounds-n-min", "bounds-n", "bounds-n-max",
            "razor-n", "razor-n-min", "razor-r-min", "validate-n", "optimal-table-max-entries",
            "quality-n-max", "quality-all-n-max", "razor-r-max-below-r-min", "razor-r-max",
            "weave-n", "weave-a", "weave-trials", "percolation-scan-n-list",
            "percolation-scan-a-grid", "weave-seed", "weave-seed-too-large", "mc-seed",
            "mc-seed-too-large", "mc-threshold", "weave-a-inf", "percolation-scan-a-inf",
            "percolation-scan-a-grid-inf", "weave-a-n-overflows",
            "percolation-scan-a-n-overflows", "weave-budget-above-int64", "bounds-exact-max"])
    def test_below_the_minimum_exits_one_with_one_error_line(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"cluster-forge: error: {message}\n"

    def test_negative_table_size_writes_no_file(self, capsys, tmp_path):
        out = tmp_path / "t.tsv"
        code = main(["optimal-table", "--n", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "cluster-forge: error: --n must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_validate_runs_clean_on_the_smallest_sizes(self, capsys, n):
        clear_table_cache()  # a larger cached table would hide a too-small build
        code, out = run(capsys, "validate", "--n", n)
        assert code == 0
        assert "FAIL" not in out
        assert "razor model with R >= N recovers the exact optimum" in out

    def test_smallest_bounds_and_razor_sizes_are_accepted(self, capsys):
        code, out = run(capsys, "bounds", "--n", "1")
        assert code == 0
        assert out.splitlines()[-1] == "1,1,,1,1,"
        code, out = run(capsys, "razor", "--n", "0", "--r-max", "2")
        assert code == 0
        assert out.splitlines()[-1] == "0,2,0,0,0"


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_process(argv):
    """``argv`` run by the CLI in a new interpreter: exit code, stdout and
    stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    env.pop("CLUSTER_FORGE_TABLE_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "cluster_forge.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help, --version and bad flags
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    """One parser serves every ``main`` call of a process."""

    def test_import_builds_no_parser(self):
        code = "import cluster_forge.cli as cli; print(cli._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert proc.stdout == "0\n"

    def test_successive_calls_print_what_fresh_processes_print(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("CLUSTER_FORGE_TABLE_DIR", raising=False)
        calls = [
            ["weave", "--n", "4", "--a", "3", "--ps", "0.5", "--trials", "200", "--seed", "3"],
            ["mc", "--strategy", "static", "--n", "9", "--trials", "300", "--seed", "1"],
            ["mc", "--strategy", "bogus", "--n", "4", "--trials", "3", "--seed", "1"],
            ["--help"],
            ["mc", "--help"],
        ]
        main(["razor", "--n", "4", "--r-max", "2"])  # the parser has served a call
        capsys.readouterr()
        for argv in calls:
            assert in_process(capsys, argv) == fresh_process(argv), argv

    def test_help_is_the_built_parsers(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        main(["quality", "--strategy", "greed", "--n-max", "3"])
        capsys.readouterr()
        assert in_process(capsys, ["--help"]) == (0, build_parser().format_help(), "")
        assert cli._parser() is cli._parser()
