"""The benchmark's tracer wraps layer functions and ``QualityTable``
methods by name (``benchmarks/tracer.py``). A renamed or deleted one
makes every traced benchmark pass fail, so a traced CLI run is part of
the suite."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import cluster_forge.cli as cli
import tracer
t = tracer.Tracer()
tracer.install(t)
code = cli.main(["quality", "--strategy", "modesty", "--n-max", "6"])
if not any(span[2] == "cli.quality" for span in t.spans):
    sys.exit("no span was recorded for the command")
sys.exit(code)
"""


def test_a_traced_cli_run_succeeds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "benchmarks")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "6,135/64"
