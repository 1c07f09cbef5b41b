"""One pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, one pass at a time: a
closed-loop client that calls ``cluster_forge.cli.main`` and the public
API back to back, with no pool and no threads. The pass reports its
set-up time (process start, ``import cluster_forge.cli`` and input
preparation, up to the first timed step), the wall time of the timed
steps, the times of a reference task run between the steps, its peak
RSS and every step's exit code and output, and prints them as one JSON
line. ``run.py`` checks the outputs.

    python3 benchmarks/child.py --workload NAME --seed N --spawned T \
        --work-dir DIR [--table-dir DIR] [--trace-out FILE]
    python3 benchmarks/child.py --check-parallel --seed N

``--spawned`` is the ``time.monotonic()`` reading the parent took just
before starting this process (the clock is system-wide on Linux).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

# The quality table optimal-dp builds and curves-bounds reads.
TABLE_N = 28
TABLE_NAME = f"table-n{TABLE_N}-ps1-2.tsv"
TABLE_ARGV = ["optimal-table", "--n", str(TABLE_N), "--ps", "1/2", "--out", TABLE_NAME]

# Each step: (name, argv for cluster_forge.cli.main or a library call,
# expected exit code). "{seed}" is replaced by the run's seed.
WORKLOADS = {
    "optimal-dp": [
        (f"optimal-table-n{TABLE_N}", TABLE_ARGV, 0),
        ("optimal-table-budget", ["optimal-table", "--n", "30", "--max-entries", "5000",
                                  "--out", "over-budget.tsv"], 2),
    ],
    "curves-bounds": [
        ("quality-optimal-float", ["quality", "--strategy", "optimal", "--ps", "0.5",
                                   "--n-max", "24"], 0),
        ("quality-all", ["quality", "--strategy", "all", "--n-max", str(TABLE_N)], 0),
        ("quality-static", ["quality", "--strategy", "static", "--n-max", "32"], 0),
        ("bounds", ["bounds", "--n-max", str(TABLE_N)], 0),
        ("razor", ["razor", "--n", "24", "--r-max", "5"], 0),
        ("validate", ["validate"], 0),
        # after the float table above, so the exact._table_cache collision
        # between 0.5 and Fraction(1, 2) is exercised
        ("optimal-quality-probe", "optimal_quality_probe", None),
    ],
    "monte-carlo": [
        ("mc-modesty", ["mc", "--strategy", "modesty", "--n", "12", "--trials", "20000",
                        "--seed", "{seed}", "--threads", "1"], 0),
        ("mc-greed", ["mc", "--strategy", "greed", "--n", "12", "--trials", "20000",
                      "--seed", "{seed}", "--threads", "1"], 0),
        ("mc-static", ["mc", "--strategy", "static", "--n", "64", "--trials", "2048",
                       "--seed", "{seed}", "--threads", "1"], 0),
        ("threshold", "threshold_experiment", None),
        ("weave", ["weave", "--n", "20", "--a", "3", "--ps", "0.5", "--trials", "50000",
                   "--seed", "{seed}"], 0),
        ("percolation-scan", ["percolation-scan", "--n-list", "50,100,200,400,800",
                              "--a", "2", "--ps-grid", "0.40,0.45,0.48,0.52,0.55,0.60"], 0),
    ],
}

# Trials of the library call threshold_experiment below.
THRESHOLD_TRIALS = 512


def step_trials(name: str) -> int:
    """Trials of one monte-carlo step, read from its argv above."""
    if name == "threshold":
        return THRESHOLD_TRIALS
    argv = next(target for step, target, _ in WORKLOADS["monte-carlo"] if step == name)
    return int(argv[argv.index("--trials") + 1])


# Strategy Monte Carlo steps, whose trials make up mc_trials_per_s.
STRATEGY_TRIALS = {name: step_trials(name)
                   for name in ("mc-modesty", "mc-greed", "mc-static", "threshold")}


def _library_call(name: str, seed: int) -> str:
    from cluster_forge import exact, montecarlo
    from cluster_forge.configuration import Configuration

    if name == "optimal_quality_probe":
        value = exact.optimal_quality(Configuration.epr_pairs(8), Fraction(1, 2))
        return f"{type(value).__name__} {value}"
    if name == "threshold_experiment":
        report = montecarlo.threshold_experiment(
            8, Fraction(137, 2048), 1, block_size=8, trials=THRESHOLD_TRIALS, seed=seed)
        return json.dumps(report.to_dict(), sort_keys=True)
    raise ValueError(name)


def _run_step(cli, target, seed: int) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of one step."""
    if isinstance(target, str):
        return None, _library_call(target, seed), ""
    argv = [arg.replace("{seed}", str(seed)) for arg in target]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reference_s() -> float:
    """Time of a fixed pure-Python task (Fraction sums and dict updates)
    that does not touch cluster_forge: it shows how fast the host runs at
    that moment. The collector is paused so that the heap left by earlier
    steps does not change it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 12000):
            total += Fraction(1, i % 61 + 1)
            seen[(i % 509, i % 7)] = total
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pass(args) -> dict:
    import cluster_forge.cli as cli

    os.chdir(args.work_dir)
    if args.table_dir:
        os.environ["CLUSTER_FORGE_TABLE_DIR"] = args.table_dir
    recorder = None
    if args.trace_out:
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)

    steps = WORKLOADS[args.workload]
    results = []
    setup_s = time.monotonic() - args.spawned
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_at_start = usage.ru_utime + usage.ru_stime
    # the reference task runs before the first step and after each step,
    # outside the step times
    references = [_reference_s()]
    for name, target, expected in steps:
        t0 = time.perf_counter()
        try:
            code, stdout, stderr = _run_step(cli, target, args.seed)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            code, stdout, stderr, error = None, "", "", f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "seconds": time.perf_counter() - t0, "code": code,
                        "expected_code": expected, "stdout": stdout, "error": error,
                        "stderr_tail": stderr[-300:]})
        references.append(_reference_s())
    wall_s = sum(result["seconds"] for result in results)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime - cpu_at_start
    peak_rss_mb = usage.ru_maxrss / 1024

    # outside the timed steps: hash every output and read back written files
    for result in results:
        result["sha256"] = _sha256(result["stdout"].encode())
    files = {}
    if args.workload == "optimal-dp":
        from cluster_forge.configuration import Configuration, canonical_key

        for path in sorted(os.listdir(".")):
            with open(path, "rb") as fh:
                data = fh.read()
            files[path] = {"sha256": _sha256(data), "bytes": len(data)}
            spots = {}
            for pairs in (4, 8):
                prefix = (canonical_key(Configuration.epr_pairs(pairs)) + "\t").encode()
                for line in data.splitlines():
                    if line.startswith(prefix):
                        spots[str(pairs)] = line.split(b"\t")[1].decode()
            files[path]["epr_pairs_quality"] = spots

    report = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
              "reference_s": references, "steps": results, "files": files}
    if recorder is not None:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "decide_calls": recorder.decide_calls,
                       "inexact_answers": recorder.inexact_answers}, fh)
    return report


def check_parallel(seed: int) -> dict:
    """estimate_quality at processes=2 must equal processes=1 bit for bit."""
    from cluster_forge.configuration import Configuration
    from cluster_forge.montecarlo import TRIAL_CHUNK, estimate_quality
    from cluster_forge.strategies import MODESTY

    kwargs = dict(strategy=MODESTY, start=Configuration.epr_pairs(12), ps=Fraction(1, 2),
                  trials=3 * TRIAL_CHUNK, seed=seed, threshold=8)
    serial = estimate_quality(processes=1, **kwargs).to_dict()
    parallel = estimate_quality(processes=2, **kwargs).to_dict()
    return {"equal": json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True),
            "serial": serial, "parallel": parallel}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--work-dir")
    parser.add_argument("--table-dir")
    parser.add_argument("--trace-out")
    parser.add_argument("--check-parallel", action="store_true")
    args = parser.parse_args()
    report = check_parallel(args.seed) if args.check_parallel else run_pass(args)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
