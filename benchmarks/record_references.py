"""Record ``benchmarks/references.json`` from the current sources.

    python3 benchmarks/record_references.py

Run it only on a commit whose outputs are known good: every later run
of the benchmark is checked against what it writes. Deterministic
outputs are stored as sha256 digests; Monte Carlo outputs are stored per
seed for ``RECORDED_SEEDS``, and for other seeds the exact qualities and
one reference sample recorded here are what the statistical checks
compare against. The
spot values 13/8 and 649/256 are the paper's, not recorded.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
from child import STRATEGY_TRIALS, step_trials

MC_STEPS = ("mc-modesty", "mc-greed", "mc-static", "threshold", "weave")
# Seeds whose Monte Carlo outputs are stored bit for bit.
RECORDED_SEEDS = range(10)


def one_pass(workload: str, seed: int, extra: list[str] | None = None) -> dict:
    work = run.REPO / ".bench_work" / f"record-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report, error = run.run_child(["--workload", workload, "--seed", str(seed),
                                   "--work-dir", str(work)] + (extra or []),
                                  time.monotonic() + 600)
    shutil.rmtree(work, ignore_errors=True)
    if report is None:
        sys.exit(f"{workload} pass failed: {error}")
    return report


def exact_quality(strategy: str) -> str:
    code = ("from cluster_forge import BUILTIN_STRATEGIES, Configuration, strategy_quality;"
            f"print(strategy_quality(BUILTIN_STRATEGIES[{strategy!r}], Configuration.epr_pairs(12)))")
    return subprocess.run([sys.executable, "-c", code], env=run.child_env(), check=True,
                          capture_output=True, text=True).stdout.strip()


def main() -> None:
    refs = {"probe": "649/256", "spot_values": {"4": "13/8", "8": "649/256"},
            "weave_trials": step_trials("weave"), "steps": {}, "files": {}, "seeded": {}}

    dp = one_pass("optimal-dp", RECORDED_SEEDS[0])
    refs["files"] = {name: {"sha256": f["sha256"]} for name, f in dp["files"].items()}
    if dp["files"][run.TABLE_NAME]["epr_pairs_quality"] != refs["spot_values"]:
        sys.exit(f"table spot values {dp['files'][run.TABLE_NAME]['epr_pairs_quality']} are wrong")

    table_dir = run.REPO / ".bench_work" / "record-tables"
    shutil.rmtree(table_dir, ignore_errors=True)
    table_dir.mkdir(parents=True)
    passes = {"optimal-dp": dp}
    subprocess.run([sys.executable, "-m", "cluster_forge.cli"] + run.TABLE_ARGV,
                   env=run.child_env(), check=True, capture_output=True, cwd=table_dir)
    passes["curves-bounds"] = one_pass("curves-bounds", RECORDED_SEEDS[0], ["--table-dir", str(table_dir)])
    shutil.rmtree(table_dir, ignore_errors=True)

    for seed in RECORDED_SEEDS:
        report = one_pass("monte-carlo", seed)
        steps = {s["name"]: s for s in report["steps"]}
        refs["seeded"][str(seed)] = {name: steps[name]["sha256"] for name in MC_STEPS}
        if seed == RECORDED_SEEDS[0]:
            passes["monte-carlo"] = report
            static = json.loads(steps["mc-static"]["stdout"])
            threshold = json.loads(steps["threshold"]["stdout"])
            refs["mc"] = {name[len("mc-"):]: {"trials": trials}
                          for name, trials in STRATEGY_TRIALS.items() if name.startswith("mc-")}
            for name in ("modesty", "greed"):
                refs["mc"][name]["exact_quality"] = exact_quality(name)
            refs["mc"]["static"].update(mean=static["mean"], stderr=static["stderr"])
            refs["threshold"] = {key: threshold[key] for key in ("n_pairs", "trials", "fraction")}

    for report in passes.values():
        for step in report["steps"]:
            if step["name"] not in MC_STEPS and step["name"] != "optimal-quality-probe":
                refs["steps"][step["name"]] = step["sha256"]

    path = run.HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
