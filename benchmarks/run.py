"""Benchmark of the cluster_forge calculator: three workloads, every
output checked, end-to-end metrics from untraced passes and per-layer
metrics from one traced pass.

    python3 benchmarks/run.py --workload optimal-dp|curves-bounds|monte-carlo \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/cluster_forge``.
Each pass is a fresh ``benchmarks/child.py`` process; passes run one
after another until ``--seconds`` have gone by (at least one pass).
End-to-end figures are medians over the passes; ``wall_norm`` is the
timed steps' wall time in units of a fixed reference task's time in
the same passes, so that the host's drift in speed mostly cancels. With ``--trace 1`` one
more pass runs with spans around each layer's public functions and
``python -X importtime``, and the per-layer metrics come from it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary (machine, load, every metric with its unit).
See ``benchmarks/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"

from child import STRATEGY_TRIALS, TABLE_ARGV, TABLE_N, TABLE_NAME, WORKLOADS  # noqa: E402
import tracer  # noqa: E402

# Every run must end within this many seconds.
DEADLINE_S = 170
# Allowed distance, in standard errors, between a Monte Carlo estimate at
# a seed without a recorded output and its exact or reference value.
Z_LIMIT = 5
CLI_COMMANDS = ["optimal-table", "quality", "bounds", "razor", "validate",
                "mc", "weave", "percolation-scan"]
MC_STRATEGIES = ["modesty", "greed", "static"]


class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.inexact: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CLUSTER_FORGE_TABLE_DIR", None)
    # one thread per process, and the same set/dict iteration order in every pass
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float, importtime: bool = False):
    """Run child.py to completion; (parsed JSON report or None, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "child.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left before the deadline"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=child_env(),
                              capture_output=True, text=True, timeout=timeout, cwd=REPO)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(lines[-1]), proc.stderr


def build_input_table(table_dir: Path, refs: dict, ops: Ops, deadline: float) -> float:
    """The table that curves-bounds reads, built by the program itself
    once per invocation, outside every workload metric."""
    table_dir.mkdir(parents=True)
    path = table_dir / TABLE_NAME
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "cluster_forge.cli"] + TABLE_ARGV,
        env=child_env(), capture_output=True, text=True, cwd=table_dir,
        timeout=max(1.0, deadline - time.monotonic()))
    seconds = time.monotonic() - start
    expected = refs["files"][TABLE_NAME]["sha256"]
    ok = proc.returncode == 0 and path.is_file() and _file_sha256(path) == expected
    ops.check(f"input table N={TABLE_N}", ok, f"exit code {proc.returncode}, {proc.stderr[-300:]}")
    return seconds


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# output checks


def _within(value: float, target: float, stderr: float) -> bool:
    return abs(value - target) <= Z_LIMIT * stderr


def check_statistics(step: dict, seed: int, refs: dict) -> tuple[bool, str]:
    """Checks for a Monte Carlo output at a seed with no recorded output."""
    name, text = step["name"], step["stdout"]
    if name in ("mc-modesty", "mc-greed", "mc-static"):
        report = json.loads(text)
        strategy = name[len("mc-"):]
        expect = refs["mc"][strategy]
        if (report["strategy"], report["trials"], report["seed"]) != (strategy, expect["trials"], seed):
            return False, f"unexpected report header {report}"
        if "exact_quality" in expect:
            target, se = float(Fraction(expect["exact_quality"])), report["stderr"]
        else:
            target = expect["mean"]
            se = math.hypot(report["stderr"], expect["stderr"])
        return _within(report["mean"], target, se), f"mean {report['mean']} vs {target} (se {se})"
    if name == "threshold":
        report = json.loads(text)
        expect = refs["threshold"]
        if (report["n_pairs"], report["trials"], report["seed"]) != (expect["n_pairs"], expect["trials"], seed):
            return False, f"unexpected report header {report}"
        f, g, n = report["fraction"], expect["fraction"], expect["trials"]
        se = math.sqrt((f * (1 - f) + g * (1 - g)) / n)
        return _within(f, g, se), f"fraction {f} vs {g} (se {se})"
    if name == "weave":
        header, row = [line for line in text.splitlines() if not line.startswith("#")]
        fields = dict(zip(header.split(","), row.split(",")))
        p, estimate = float(fields["p_s"]), float(fields["mc_estimate"])
        se = math.sqrt(p * (1 - p) / refs["weave_trials"])
        return _within(estimate, p, se), f"estimate {estimate} vs p_s {p} (se {se})"
    return False, "no reference for this output"


def check_pass(workload: str, report: dict | None, error: str, seed: int, refs: dict, ops: Ops) -> None:
    steps = WORKLOADS[workload]
    if report is None:
        for name, _, _ in steps:
            ops.check(name, False, f"pass crashed: {error}")
        return
    seeded = refs["seeded"].get(str(seed), {})
    for step in report["steps"]:
        name = step["name"]
        if step["error"]:
            ops.check(name, False, step["error"])
            continue
        if step["expected_code"] is not None and step["code"] != step["expected_code"]:
            ops.check(name, False, f"exit code {step['code']}, expected {step['expected_code']}: "
                                   f"{step['stderr_tail']}")
            continue
        if name == "optimal-quality-probe":
            check_probe(step["stdout"], refs, ops)
        elif name in refs["steps"]:
            ops.check(name, step["sha256"] == refs["steps"][name], "output differs from reference")
        elif name in seeded:
            ops.check(name, step["sha256"] == seeded[name],
                      f"output at seed {seed} differs from reference")
        else:
            try:
                ok, detail = check_statistics(step, seed, refs)
            except (ValueError, KeyError, TypeError) as exc:
                ok, detail = False, f"unreadable output: {exc!r}"
            ops.check(name, ok, detail)
    if workload == "optimal-dp":
        files = report["files"]
        expected = refs["files"]
        ops.check("optimal-table files", set(files) == set(expected), f"wrote {sorted(files)}")
        table = files.get(TABLE_NAME, {})
        ops.check(f"table N={TABLE_N} sha256", table.get("sha256") == expected[TABLE_NAME]["sha256"],
                  "table differs from reference")
        ops.check(f"table N={TABLE_N} spot values", table.get("epr_pairs_quality") == refs["spot_values"],
                  f"{table.get('epr_pairs_quality')} vs {refs['spot_values']}")


def check_probe(text: str, refs: dict, ops: Ops) -> None:
    """optimal_quality(epr_pairs(8), Fraction(1, 2)) must be the exact
    Fraction 649/256. The same number as a float is the known
    exact._table_cache collision: recorded as an inexact answer."""
    kind, _, value = text.partition(" ")
    expected = Fraction(refs["probe"])
    if kind == "Fraction" and Fraction(value) == expected:
        ops.check("optimal-quality-probe", True)
    elif kind == "float" and Fraction(float(value)) == expected:
        ops.check("optimal-quality-probe", True)
        ops.inexact.append(f"optimal_quality(epr_pairs(8), Fraction(1, 2)) returned the float {value}")
    else:
        ops.check("optimal-quality-probe", False, f"returned {text}, expected Fraction {expected}")


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, reports: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over the passes of one run. The host's speed drifts: in
    some minutes both the timed steps and the reference task (``child.py``)
    run up to 1.8 times slower than in others. ``wall_norm``, the wall
    time of the timed steps in units of the reference task's time in the
    same passes, cancels most of that drift; ``wall_s`` and
    ``reference_s`` are the raw seconds it is made of."""
    wall = statistics.median(r["wall_s"] for r in reports)
    reference = statistics.median(t for r in reports for t in r["reference_s"])
    metrics = {
        "wall_norm": (wall / reference, "ref"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        "wall_s": (wall, "s"),
        "reference_s": (reference, "s"),
    }
    steps = [{s["name"]: s for s in r["steps"]} for r in reports]
    if workload == "optimal-dp":
        # stdout is "wrote <entries> entries for N=<n> to <path>"
        name = reports[0]["steps"][0]["name"]
        rates = [int(by_name[name]["stdout"].split()[1]) / by_name[name]["seconds"]
                 for by_name in steps if by_name[name]["code"] == 0]
        if rates:
            metrics["dp_entries_per_s"] = (statistics.median(rates), "entries/s")
    if workload == "monte-carlo":
        trials = sum(STRATEGY_TRIALS.values())
        rates = [trials / sum(by_name[name]["seconds"] for name in STRATEGY_TRIALS)
                 for by_name in steps]
        metrics["mc_trials_per_s"] = (statistics.median(rates), "trials/s")
    return metrics


def per_layer(trace_file: Path, importtime_log: str, traced_wall: float, untraced_wall: float):
    data = json.loads(trace_file.read_text())
    metrics = tracer.layer_metrics(data["spans"], data["decide_calls"], data["inexact_answers"],
                                   CLI_COMMANDS, MC_STRATEGIES)
    metrics.update(tracer.import_times(importtime_log))
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall
    return metrics


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package}={importlib.metadata.version(package)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{package}=missing")
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()} {' '.join(versions)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cluster_forge" / "cli.py").is_file():
        print(f"benchmark: no cluster_forge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "references.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    # compile once here, so no pass pays for writing bytecode
    compileall.compile_dir(str(SRC / "cluster_forge"), quiet=1)

    print(f"machine: {machine()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    load_before = os.getloadavg()[0]
    ops = Ops()
    work = REPO / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.workload == "curves-bounds":
            table_dir = work / "tables"
            seconds = build_input_table(table_dir, refs, ops, deadline)
            common += ["--table-dir", str(table_dir)]
            print(f"input table N={TABLE_N}: built in {seconds:.4f} s before the passes "
                  "(not part of any metric)")

        reports = []
        start = time.monotonic()
        while not reports or time.monotonic() - start < args.seconds:
            pass_dir = work / f"pass{len(reports)}"
            pass_dir.mkdir(parents=True)
            report, error = run_child(common + ["--work-dir", str(pass_dir)], deadline)
            check_pass(args.workload, report, error, args.seed, refs, ops)
            if report is None:
                break
            reports.append(report)

        layer = None
        if args.trace and reports:
            pass_dir = work / "traced"
            pass_dir.mkdir(parents=True)
            trace_file = work / "spans.json"
            report, log = run_child(common + ["--work-dir", str(pass_dir),
                                              "--trace-out", str(trace_file)],
                                    deadline, importtime=True)
            check_pass(args.workload, report, log, args.seed, refs, ops)
            if report is not None:
                untraced = statistics.median(r["wall_s"] for r in reports)
                layer = per_layer(trace_file, log, report["wall_s"], untraced)
                layer["untraced.wall_s"] = untraced
                layer["host.reference_s"] = statistics.median(
                    t for r in reports for t in r["reference_s"])
                keep = REPO / ".bench_work" / f"spans-{args.workload}.json"
                shutil.copyfile(trace_file, keep)
                print(f"spans of the traced pass: {keep}")

        if args.workload == "curves-bounds":
            # every step must read the input table, none may add another
            names = sorted(os.listdir(table_dir))
            ops.check("input table unchanged", names == [TABLE_NAME] and
                      _file_sha256(table_dir / TABLE_NAME) == refs["files"][TABLE_NAME]["sha256"],
                      f"table directory holds {names}")

        if args.workload == "monte-carlo":
            result, error = run_child(["--check-parallel", "--seed", str(args.seed)], deadline)
            ops.check("estimate_quality processes=2 vs processes=1",
                      result is not None and result["equal"], error if result is None else
                      f"serial {result['serial']} parallel {result['parallel']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()[0]

    print(f"load average (1 min): before={load_before:.2f} after={load_after:.2f}")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for note in sorted(set(ops.inexact)):
        print(f"known defect, {ops.inexact.count(note)} times: {note}")
    if not reports or (args.trace and layer is None):
        print("benchmark: no complete pass, no result", file=sys.stderr)
        return 1

    e2e = end_to_end(args.workload, reports)
    failed = len(ops.failures)
    for i, report in enumerate(reports):
        steps = " ".join(f"{s['name']}={s['seconds']:.3f}" for s in report["steps"])
        print(f"pass {i}: wall_s={report['wall_s']:.4f} cpu_s={report['cpu_s']:.4f} "
              f"setup_s={report['setup_s']:.4f} reference_s={statistics.median(report['reference_s']):.4f} {steps}")
    print(f"passes={len(reports)} (medians below are over the passes)")
    for name, (value, unit) in e2e.items():
        print(f"  {name:18s} {value:14.6f} {unit}")
    print(f"  {'error_rate':18s} {failed / ops.attempted:14.6f} ratio ({failed} of {ops.attempted} ops)")
    print(f"  {'inexact_answers':18s} {len(ops.inexact):14d} count")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else {name: value for name, (value, _) in e2e.items()}
    if args.trace:
        for name in sorted(layer):
            print(f"  {name:40s} {layer[name]:.6f}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": ops.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
