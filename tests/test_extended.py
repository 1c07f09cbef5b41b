"""Extended, minutes-scale verification at the full published sizes.

Opt in with CLUSTER_FORGE_EXTENDED=1; see README. Covers the N=46 and
N=60 exact tables, each built in a fresh process whose time and peak RSS
are reported, and the size-92 anchor of the linear lower bound.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cluster_forge import bounds
from cluster_forge.configuration import Configuration
from cluster_forge.exact import QualityTable

pytestmark = pytest.mark.skipif(
    os.environ.get("CLUSTER_FORGE_EXTENDED") != "1",
    reason="set CLUSTER_FORGE_EXTENDED=1 to run the extended suite",
)

EXTENDED_N = 46
# peak RSS of a process that only imports the exact layer and builds the
# N=46 table, before and after it writes the table file: 73 MB (87 MB once
# written) with one int per table entry, 58-59 MB with the values packed
# per vertex level
BUILD_RSS_LIMIT_MB = 70

# Defines peak_mb(), the peak RSS of the running process in MB. A child
# started by fork or vfork carries its parent's ru_maxrss over exec, so
# the build scripts read the address space's own high-water mark (VmHWM)
# where the system reports one.
PEAK_MB = """
import resource
def peak_mb():
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
"""

# Builds and times the table, takes the peak RSS before and after the table
# file is written; prints one JSON line.
BUILD_SCRIPT = PEAK_MB + """
import json, sys, time
from cluster_forge.exact import build_quality_table
start = time.perf_counter()
table = build_quality_table(int(sys.argv[1]))
seconds = time.perf_counter() - start
peak = peak_mb()
table.save(sys.argv[2])
print(json.dumps({"seconds": seconds, "peak_mb": peak, "write_peak_mb": peak_mb(),
                  "entries": len(table), "numpy": "numpy" in sys.modules}))
"""


LARGE_N = 60
LARGE_SECONDS_LIMIT = 180
# the N=60 build peaks at 532-545 MB with one int per table entry and 418
# MB with the values packed per vertex level; most of that is the dicts of
# the DP's five live levels
LARGE_RSS_LIMIT_MB = 500
# address-space cap of the N=60 build process: a runaway build fails with
# MemoryError there instead of exhausting the host
LARGE_ADDRESS_LIMIT = 3 * LARGE_RSS_LIMIT_MB // 2 * 2 ** 20

# Caps its own address space, builds and times the table, and prints one
# JSON line with the optimal quality of 0..N pairs.
LARGE_BUILD_SCRIPT = PEAK_MB + """
import json, sys, time
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from cluster_forge.configuration import Configuration
from cluster_forge.exact import build_quality_table
n = int(sys.argv[1])
start = time.perf_counter()
table = build_quality_table(n)
seconds = time.perf_counter() - start
peak = peak_mb()
qualities = [str(table.quality(Configuration.epr_pairs(m))) for m in range(n + 1)]
print(json.dumps({"seconds": seconds, "peak_mb": peak, "entries": len(table),
                  "qualities": qualities}))
"""


def _package_env():
    env = dict(os.environ)
    package_root = str(Path(sys.modules[QualityTable.__module__].__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def epr(n):
    return Configuration.epr_pairs(n)


@pytest.fixture(scope="module")
def build46(tmp_path_factory):
    path = tmp_path_factory.mktemp("extended") / f"table-n{EXTENDED_N}-ps1-2.tsv"
    proc = subprocess.run([sys.executable, "-c", BUILD_SCRIPT, str(EXTENDED_N), str(path)],
                          env=_package_env(), capture_output=True, text=True, check=True,
                          timeout=900)
    report = json.loads(proc.stdout.splitlines()[-1])
    print(f"\nEXTENDED: table for N={EXTENDED_N} built in {report['seconds']:.1f}s, "
          f"peak RSS {report['peak_mb']:.0f} MB ({report['entries']} entries), "
          f"{report['write_peak_mb']:.0f} MB once written")
    return path, report


@pytest.fixture(scope="module")
def table46(build46):
    return QualityTable.load(build46[0])


def test_build_46_fits_in_memory(build46):
    _, report = build46
    assert not report["numpy"]
    assert report["peak_mb"] < BUILD_RSS_LIMIT_MB
    # the write holds one group of keys at a time, not every line
    assert report["write_peak_mb"] < BUILD_RSS_LIMIT_MB


def test_near_optimality_to_46(table46):
    values = bounds.modesty_quality_range(EXTENDED_N)
    worst_even = Fraction(0)
    worst_odd = Fraction(0)
    for n in range(11, EXTENDED_N + 1):
        q = table46.quality(epr(n))
        gap = (q - values[n]) / q
        assert gap >= 0
        if n % 2 == 0:
            if n < EXTENDED_N:
                assert gap < Fraction(11, 10000), n
            worst_even = max(worst_even, gap)
        else:
            worst_odd = max(worst_odd, gap)
    # the two-significant-figure constant 1.1e-3 is exactly the even-size
    # gap at N=46: its true value is 1.10043e-3
    assert round(float(worst_even), 5) == 0.0011
    assert worst_even < Fraction(12, 10000)
    print(f"EXTENDED: even-N gap up to 46: {float(worst_even):.6e} "
          f"(odd-N: {float(worst_odd):.2e})")


def test_corollary_upper_bound_at_46(table46):
    q46 = table46.quality(epr(EXTENDED_N))
    assert q46 <= Fraction(EXTENDED_N, 5) + 2  # 11.2
    print(f"EXTENDED: Q(46) = {float(q46):.4f} <= 11.2")


def test_sandwich_to_46(table46):
    values = bounds.modesty_quality_range(16)
    for n in range(8, EXTENDED_N + 1):
        lower = bounds.modesty_lower_bound(n, 8, values)
        assert lower <= table46.quality(epr(n)) <= bounds.razor_upper_bound(n, 2)


def test_lower_bound_anchor_at_92():
    values = bounds.modesty_quality_range(184)
    anchor = values[92]
    alpha = (anchor - 2) / 92
    assert abs(float(anchor) - 16.1069) < 5e-5
    assert abs(float(alpha) - 0.153336) < 5e-7

    # odd sizes sit on parity steps below the even-anchored slope, so the
    # all-sizes hypothesis fails and is reported ...
    with pytest.raises(bounds.HypothesisViolated) as err:
        bounds.modesty_lower_bound(1000, 92, values)
    assert err.value.failing and all(m % 2 for m in err.value.failing)

    # ... while on the even lattice it holds and yields the linear bound
    bound = bounds.modesty_lower_bound(1000, 92, values, step=2)
    assert bound == anchor + alpha * (1000 - 92)
    print(f"EXTENDED: anchor quality {float(anchor):.6f}, rate {float(alpha):.6f}, "
          f"odd-size exceptions {len(err.value.failing)}")


def test_table_60_within_budget_and_proven_bounds():
    proc = subprocess.run([sys.executable, "-c", LARGE_BUILD_SCRIPT, str(LARGE_N),
                           str(LARGE_ADDRESS_LIMIT)],
                          env=_package_env(), capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    print(f"\nEXTENDED: table for N={LARGE_N} built in {report['seconds']:.1f}s, "
          f"peak RSS {report['peak_mb']:.0f} MB ({report['entries']} entries)")
    assert report["seconds"] < LARGE_SECONDS_LIMIT
    assert report["peak_mb"] < LARGE_RSS_LIMIT_MB

    qualities = [Fraction(text) for text in report["qualities"]]
    modesty = bounds.modesty_quality_range(LARGE_N)
    worst = {0: (Fraction(0), 0), 1: (Fraction(0), 0)}
    for n in range(1, LARGE_N + 1):
        q = qualities[n]
        gap = q - modesty[n]
        assert gap >= 0, n
        worst[n % 2] = max(worst[n % 2], (gap / q, n))
        if n >= 6:
            assert q <= bounds.analytic_upper_bound(n), n
        if n >= 8:
            lower = bounds.modesty_lower_bound(n, 8, modesty)
            assert lower <= q <= bounds.razor_upper_bound(n, 2), n
    for parity, name in ((0, "even"), (1, "odd")):
        gap, n = worst[parity]
        print(f"EXTENDED: largest {name}-N optimal - modesty gap up to {LARGE_N}: "
              f"{float(gap):.6e} of Q at N={n}; at N={LARGE_N - parity}: "
              f"{float(qualities[LARGE_N - parity] - modesty[LARGE_N - parity]):.6f}")
