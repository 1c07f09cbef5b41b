"""The benchmark's tracer wraps layer functions and ``QualityTable``
methods by name (``benchmarks/tracer.py``). A renamed or deleted one
makes every traced benchmark pass fail, so traced CLI runs are part of
the suite: one through the strategy sweep, one that loads a table file
(the tracer rewraps the classmethod ``QualityTable.load``), and one
through the oracle and the validity sweep."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cluster_forge.exact import build_quality_table

ROOT = Path(__file__).resolve().parents[1]

# argv: benchmarks directory, the CLI argv as JSON, the span names that
# must be recorded as JSON
TRACED_RUN = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import cluster_forge.cli as cli
import tracer
t = tracer.Tracer()
tracer.install(t)
code = cli.main(json.loads(sys.argv[2]))
recorded = {span[2] for span in t.spans}
missing = [name for name in json.loads(sys.argv[3]) if name not in recorded]
if missing:
    sys.exit(f"no span was recorded for {missing}")
sys.exit(code)
"""


def traced_run(argv, spans, table_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("CLUSTER_FORGE_TABLE_DIR", None)
    if table_dir is not None:
        env["CLUSTER_FORGE_TABLE_DIR"] = str(table_dir)
    return subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "benchmarks"),
                           json.dumps(argv), json.dumps(spans)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_a_traced_cli_run_succeeds():
    proc = traced_run(["quality", "--strategy", "modesty", "--n-max", "6"], ["cli.quality"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "6,135/64"


@pytest.mark.parametrize("argv, spans, table", [
    (["quality", "--strategy", "optimal", "--n-max", "8"],
     ["cli.quality", "exact.cached_quality_table", "exact.QualityTable.load"], True),
    (["validate", "--n", "4"], ["cli.validate", "exact.event_tree_oracle"], False),
], ids=["table-load", "validate"])
def test_traced_runs_through_the_paused_builders(tmp_path, argv, spans, table):
    if table:
        build_quality_table(8).save(tmp_path / "table-n8-ps1-2.tsv")
    proc = traced_run(argv, spans, tmp_path if table else None)
    assert proc.returncode == 0, proc.stderr
    if table:
        assert proc.stdout.splitlines()[-1] == "8,649/256"
        assert os.listdir(tmp_path) == ["table-n8-ps1-2.tsv"]
    else:
        assert proc.stdout.startswith("ok ") and "FAIL" not in proc.stdout
