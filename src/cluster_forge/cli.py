"""Command-line front end emitting plot-ready CSV/JSON.

Exit codes: 0 success, 1 invalid flags or values, 2 table budget
exceeded, 3 internal certificate failure (LP duality, oracle mismatch,
or a failed validation run) or a corrupt table in
CLUSTER_FORGE_TABLE_DIR, which the table store of cluster_forge.exact
reads and writes for an exact ps.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .configuration import (
    FAILURE,
    SUCCESS,
    Configuration,
    canonical_key,
    enumerate_configurations,
    parse_key,
)
from .exact import (
    HALF,
    CorruptTable,
    QualityTable,
    TableBudgetExceeded,
    build_quality_table,
    cached_quality_table,
    event_tree_oracle,
    strategy_quality,
    strategy_quality_range,
)
from .strategies import BUILTIN_STRATEGIES, validate_strategy_sweep
from . import bounds as bnd
from .montecarlo import estimate_quality, wilson_interval
from .twodim import (
    WeaveParameters,
    hoeffding_bound,
    overall_success_probability,
    percolation_scan,
    simulate_weave,
    single_chain_weave_probability,
)


class CLIError(Exception):
    """Invalid flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_ps(text: str):
    """'a/b' gives an exact rational and the exact engine; a decimal
    gives the floating-point path."""
    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"cannot parse success probability '{text}': {exc}") from None
    if not 0 < value <= 1:
        raise CLIError(f"success probability must be in (0, 1], got {text}")
    return value


def _check_least(*checks) -> None:
    """Reject any ``(flag, value, least)`` whose value is below its least."""
    for flag, value, least in checks:
        if value < least:
            raise CLIError(f"{flag} must be at least {least}, got {value}")


@contextlib.contextmanager
def _naming(what: str):
    """An OSError inside becomes a CLIError that names ``what``: the path
    the user gave, not a temporary file made for it."""
    try:
        yield
    except OSError as exc:
        raise CLIError(f"{what}: {exc.strerror or exc}") from None


def _check_seed(seed: int) -> None:
    """Philox keys are 128-bit unsigned integers."""
    _check_least(("--seed", seed, 0))
    if seed >= 2 ** 128:
        raise CLIError(f"--seed must be below 2**128, got {seed}")


def _sizes(args, least: int) -> list[int]:
    """The single ``--n``, or the nonempty ``--n-min``..``--n-max`` sweep,
    no size below ``least``."""
    if args.n is not None:
        _check_least(("--n", args.n, least))
        return [args.n]
    _check_least(("--n-min", args.n_min, least), ("--n-max", args.n_max, args.n_min))
    return list(range(args.n_min, args.n_max + 1))


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with _naming(f"cannot write {path}"), open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _emit_csv(path, subcommand, columns, rows, comments=()):
    lines = [f"# cluster-forge v{__version__} {subcommand}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_lines(path, lines)


def _emit_json(path, subcommand, payload) -> None:
    payload = {"schema": f"cluster-forge.{subcommand}/1", "version": __version__, **payload}
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _table_for(n: int, ps) -> QualityTable:
    """Table covering total length n from the exact table store, which gets
    CLUSTER_FORGE_TABLE_DIR for an exact ps; an OSError there is a CLIError."""
    table_dir = os.environ.get("CLUSTER_FORGE_TABLE_DIR")
    if table_dir and isinstance(ps, Fraction):
        with _naming(f"table directory {table_dir}"):
            return cached_quality_table(n, ps, table_dir)
    return cached_quality_table(n, ps)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_quality(args) -> int:
    ps = _parse_ps(args.ps)
    _check_least(("--n-min", args.n_min, 0), ("--n-max", args.n_max, args.n_min),
                 ("--step", args.step, 1))
    ns = range(args.n_min, args.n_max + 1, args.step)
    if args.strategy == "all":
        if not isinstance(ps, Fraction) or ps != HALF:
            raise CLIError("--strategy all tabulates the ps = 1/2 reference curves")
        table = _table_for(args.n_max, ps)
        modesty = strategy_quality_range(BUILTIN_STRATEGIES["modesty"], ns, ps)
        greed = strategy_quality_range(BUILTIN_STRATEGIES["greed"], ns, ps)
        columns = ["n", "optimal", "modesty", "greed", "static_bound", "greed_asymptotic"]
        rows = []
        for n in ns:
            static_bound = ""
            if n >= 8 and n & (n - 1) == 0:
                static_bound = bnd.static_lower_bound(n)
            rows.append([
                n,
                table.quality(Configuration.epr_pairs(n)),
                modesty[n],
                greed[n],
                static_bound,
                bnd.greed_asymptotic(n),
            ])
    else:
        columns = ["n", "quality"]
        if args.strategy == "optimal":
            table = _table_for(args.n_max, ps)
            rows = [[n, table.quality(Configuration.epr_pairs(n))] for n in ns]
        else:
            values = strategy_quality_range(BUILTIN_STRATEGIES[args.strategy], ns, ps)
            rows = [[n, value] for n, value in values.items()]
    if args.format == "json":
        _emit_json(args.out, "quality", {
            "strategy": args.strategy,
            "ps": str(args.ps),
            "rows": [{c: _fmt(v) for c, v in zip(columns, row)} for row in rows],
        })
    else:
        _emit_csv(args.out, "quality", columns, rows)
    return 0


def _cmd_optimal_table(args) -> int:
    ps = _parse_ps(args.ps)
    if not isinstance(ps, Fraction):
        raise CLIError("persisted tables require an exact rational ps such as 1/2")
    _check_least(("--n", args.n, 0))
    if args.max_entries is not None:
        _check_least(("--max-entries", args.max_entries, 0))
    table = build_quality_table(args.n, ps, max_entries=args.max_entries)
    with _naming(f"cannot write {args.out}"):
        table.save(args.out)
    print(f"wrote {len(table)} entries for N={args.n} to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    ns = _sizes(args, 1)
    if args.exact_max is not None:
        _check_least(("--exact-max", args.exact_max, 0))
    exact_max = args.exact_max if args.exact_max is not None else 30
    table_n = min(max(ns), exact_max)
    table = _table_for(table_n, HALF) if table_n >= 1 else None
    modesty_values = bnd.modesty_quality_range(max(16, max(ns)))
    razor2 = bnd.razor_quality_range(ns, 2)
    columns = ["n", "modesty", "lower_bound", "exact_q", "razor2_upper", "corollary_upper"]
    rows = []
    for n in ns:
        lower = bnd.modesty_lower_bound(n, 8, modesty_values) if n >= 8 else ""
        exact_q = table.quality(Configuration.epr_pairs(n)) if n <= table_n else ""
        upper2 = n - razor2[n][1]
        corollary = bnd.analytic_upper_bound(n) if n >= 6 else ""
        rows.append([n, modesty_values[n], lower, exact_q, upper2, corollary])
    _emit_csv(args.out, "bounds", columns, rows)
    return 0


def _cmd_razor(args) -> int:
    if args.n is None and args.n_max is None:
        raise CLIError("need --n (razor-parameter sweep) or --n-max (size sweep)")
    ns = _sizes(args, 0)
    _check_least(("--r-min", args.r_min, 2), ("--r-max", args.r_max, args.r_min))
    columns = ["n", "r", "razor_quality", "razor_attempts", "upper_bound"]
    # one razor DP per r, for the largest n
    by_r = {r: bnd.razor_quality_range(ns, r) for r in range(args.r_min, args.r_max + 1)}
    rows = []
    for n in ns:
        for r, razor in by_r.items():
            quality, attempts = razor[n]
            rows.append([n, r, quality, attempts, n - attempts])
    _emit_csv(args.out, "razor", columns, rows, comments=["ps=1/2"])
    return 0


def _cmd_mc(args) -> int:
    ps = _parse_ps(args.ps)
    _check_least(("--n", args.n, 0), ("--trials", args.trials, 1), ("--threads", args.threads, 1))
    if args.threshold is not None:
        _check_least(("--threshold", args.threshold, 0))
    _check_seed(args.seed)
    strategy = BUILTIN_STRATEGIES[args.strategy]
    report = estimate_quality(
        strategy,
        Configuration.epr_pairs(args.n),
        ps,
        trials=args.trials,
        seed=args.seed,
        threshold=args.threshold,
        processes=args.threads,
    )
    payload = report.to_dict()
    if args.threshold is not None:
        low, high = wilson_interval(report.success_count, report.trials)
        payload["wilson_low"] = low
        payload["wilson_high"] = high
    _emit_json(args.out, "mc", payload)
    return 0


def _cmd_weave(args) -> int:
    ps = _as_float_ps(args.ps)
    _check_least(("--trials", args.trials, 0))
    _check_seed(args.seed)
    try:
        params = WeaveParameters(n=args.n, a=args.a, ps=ps)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    pi = single_chain_weave_probability(params)
    overall = overall_success_probability(params)
    try:
        hoeff = hoeffding_bound(params)
    except ValueError:
        hoeff = None
    if args.trials:
        try:
            report = simulate_weave(params, args.trials, args.seed)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        mc, lo, hi = report.fraction, report.wilson_low, report.wilson_high
    else:
        mc = lo = hi = None
    _emit_csv(
        args.out,
        "weave",
        ["n", "a", "ps", "pi_s", "p_s", "hoeffding", "mc_estimate", "mc_ci_low", "mc_ci_high"],
        [[args.n, args.a, params.ps, pi, overall, hoeff, mc, lo, hi]],
    )
    return 0


def _as_float_ps(text: str) -> float:
    value = _parse_ps(text)
    return float(value)


def _parse_number_list(text: str, cast):
    try:
        return [cast(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise CLIError(f"cannot parse list '{text}': {exc}") from None


def _cmd_percolation_scan(args) -> int:
    n_values = _parse_number_list(args.n_list, int)
    if (args.a is None) == (args.ps is None):
        raise CLIError("fix exactly one of --a and --ps")
    if args.a is not None:
        if not args.ps_grid:
            raise CLIError("--a requires --ps-grid")
        grid = {"a": args.a, "ps_values": _parse_number_list(args.ps_grid, float)}
    else:
        if not args.a_grid:
            raise CLIError("--ps requires --a-grid")
        grid = {"ps": _as_float_ps(args.ps), "a_values": _parse_number_list(args.a_grid, float)}
    try:
        scan = percolation_scan(n_values, **grid)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    comments = [f"threshold={scan.threshold!r}"]
    for (a, ps), trend in sorted(scan.trends.items()):
        comments.append(f"trend a={a!r} ps={ps!r}: {trend}")
    comments.append(
        f"bracket_low={_fmt(scan.bracket_low)} bracket_high={_fmt(scan.bracket_high)} "
        f"contains_threshold={scan.bracket_contains_threshold}"
    )
    rows = [[p.a, p.ps, p.n, p.single_chain, p.overall, p.log_overall] for p in scan.points]
    _emit_csv(args.out, "percolation-scan",
              ["a", "ps", "n", "pi_s", "p_s", "log_p_s"], rows, comments=comments)
    return 0


def _cmd_validate(args) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{status:4s} {name}{suffix}")
        if not ok:
            failures += 1

    size = args.n
    _check_least(("--n", size, 0))
    if size > 12:
        # the exhaustive checks stay small; stdout keeps naming the sizes used
        print(f"cluster-forge: note: validate --n {size} checks strategy validity up to "
              f"{min(size, 14)} edges and the monotonicity suite up to 12 edges",
              file=sys.stderr)
    configs = list(enumerate_configurations(min(size, 14)))
    for name, strategy in BUILTIN_STRATEGIES.items():
        config, result = validate_strategy_sweep(strategy, configs)
        bad = None if result.ok else f"{config}: {result.message} at '{result.event}'"
        check(f"validity of {name} on all configurations up to {min(size, 14)} edges",
              bad is None, bad or "")

    try:
        for n in range(1, 201):
            bnd.lp_attempts_bound(n)
        check("linear-program duality certificates for N=1..200", True)
    except bnd.CertificateMismatch as exc:
        check("linear-program duality certificates for N=1..200", False, str(exc))

    oracle_ok = True
    detail = ""
    for name, strategy in BUILTIN_STRATEGIES.items():
        for ps in (Fraction(1, 4), HALF, Fraction(3, 4)):
            start = Configuration.epr_pairs(8)
            oracle = event_tree_oracle(strategy, start, ps)
            quality = strategy_quality(strategy, start, ps)
            if oracle.mean_length != quality or oracle.total_probability != 1:
                oracle_ok = False
                detail = f"{name} at ps={ps}"
                break
    check("event-tree oracle agrees with memoized qualities at N=8", oracle_ok, detail)

    suite_n = min(size, 12)
    table = cached_quality_table(max(suite_n + 6, 8), HALF)  # the razor check reads 8 edges
    suite_ok = True
    detail = ""
    for config in enumerate_configurations(suite_n):
        q = table.quality(config)
        for i in range(1, 7):
            bigger = table.quality(config.add(i))
            if bigger < q or bigger > q + i:
                suite_ok = False
                detail = f"{config} + chain {i}"
                break
        for i in config.lengths():
            # shorten one chain of length i by a single edge
            shorter = config.add(i, -1)
            if i > 1:
                shorter = shorter.add(i - 1)
            if table.quality(shorter) < q - 1:
                suite_ok = False
                detail = f"{config} shortened at {i}"
                break
            t_gap = (shorter.total_length - table.quality(shorter)) - (config.total_length - q)
            if t_gap > 0:
                suite_ok = False
                detail = f"attempt monotonicity at {config}, length {i}"
                break
        if config.chain_count > 1:
            action = table.action(config)
            succ = table.quality(config.fuse(action.a, action.b, SUCCESS))
            fail = table.quality(config.fuse(action.a, action.b, FAILURE))
            if not (succ >= q >= fail):
                suite_ok = False
                detail = f"win/lose ordering at {config}"
        if not suite_ok:
            break
    check(f"monotonicity suite on configurations up to {suite_n} edges", suite_ok, detail)

    roundtrip_ok = all(parse_key(canonical_key(c)) == c for c in configs)
    check("canonical key round-trip", roundtrip_ok)

    rq, rt = bnd.razor_quality(8, 8)
    check("razor model with R >= N recovers the exact optimum",
          rq == table.quality(Configuration.epr_pairs(8)))

    return 0 if failures == 0 else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="cluster-forge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cluster-forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quality", help="expected final length vs input size")
    p.add_argument("--strategy", required=True,
                   choices=["greed", "modesty", "static", "optimal", "all"])
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--ps", default="1/2")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("optimal-table", help="build and persist a quality table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ps", default="1/2")
    p.add_argument("--max-entries", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimal_table)

    p = sub.add_parser("bounds", help="lower/upper bound table at ps = 1/2")
    p.add_argument("--n", type=int)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--exact-max", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("razor", help="capped-length relaxation vs razor parameter")
    p.add_argument("--n", type=int)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int)
    p.add_argument("--r-min", type=int, default=2)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_razor)

    p = sub.add_parser("mc", help="Monte Carlo estimate of a strategy's quality")
    p.add_argument("--strategy", required=True, choices=sorted(BUILTIN_STRATEGIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ps", default="1/2")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threshold", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("weave", help="2D weave success probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--ps", required=True)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_weave)

    p = sub.add_parser("percolation-scan", help="threshold scan for the 2D weave")
    p.add_argument("--n-list", required=True)
    p.add_argument("--a", type=float)
    p.add_argument("--ps-grid")
    p.add_argument("--ps")
    p.add_argument("--a-grid")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_percolation_scan)

    p = sub.add_parser("validate", help="run the invariant suite")
    p.add_argument("--n", type=int, default=12)
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every :func:`main` call of a process shares, built on
    the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"cluster-forge: error: {exc}", file=sys.stderr)
        return 1
    except TableBudgetExceeded as exc:
        print(f"cluster-forge: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except bnd.CertificateMismatch as exc:
        print(f"cluster-forge: certificate failure: {exc}", file=sys.stderr)
        return 3
    except CorruptTable as exc:
        print(f"cluster-forge: corrupt table: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
