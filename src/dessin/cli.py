"""Command-line surface: exact computations and verification suites.

Exit codes: 0 success (or all checks passed), 1 verification failure,
2 usage error, 3 internal error (an unexpected exception, reported in one
line on stderr).  Output is JSON by default (``--format text`` for a
human rendering) and deterministic given the arguments; with
``--seedless`` the elapsed-time field is omitted so re-runs are
byte-identical.

The Virasoro memo table persists as a versioned JSON cache.  Resolution
order for its directory: ``--cache PATH`` flag, then the
``DESSIN_CACHE_DIR`` environment variable, then ``./.dessin-cache``.
A warm cache can only change timings, never a reported value.  A query
writes the cache back only when it added entries, so a read-only query
never touches the file (nor creates its directory) and never drops another
process's newer entries; two writers can still lose each other's entries.

The argument parser is built once per process; ``main`` looks the
``cmd_<command>`` function up in this module at call time, so a replaced
command takes effect.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from . import airy, closedforms
from .eo import W03_DISPLAY, W11_DISPLAY, EOEngine
from .npoint import as_polynomial, index_tuples
from .report import VerificationReport, run_comparisons
from .virasoro import CacheFormatError, CorrelatorTable, VirasoroEngine

CACHE_FILE = "correlators.json"


# -- cache plumbing ------------------------------------------------------------


def resolve_cache_dir(flag: Optional[str]) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get("DESSIN_CACHE_DIR")
    if env:
        return Path(env)
    return Path(".dessin-cache")


def _stored_table(path: Path) -> Optional[CorrelatorTable]:
    """The cache at ``path``, or None when there is none.  Opening is the
    only test: a file removed by a concurrent ``cache clear`` reads as absent."""
    try:
        return CorrelatorTable.load(path)
    except (FileNotFoundError, NotADirectoryError):
        return None


def load_engine(cache_dir: Path) -> VirasoroEngine:
    return VirasoroEngine(_stored_table(cache_dir / CACHE_FILE))


def save_engine(cache_dir: Path, engine: VirasoroEngine) -> None:
    """Write the table back only if it grew since it was loaded or saved."""
    if len(engine.table) == engine.table.stored:
        return
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        engine.table.save(cache_dir / CACHE_FILE)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(f"cannot write the correlator cache {cache_dir / CACHE_FILE}: {exc}") from exc


# -- verification suites ----------------------------------------------------------


def suite_one_point_fixtures(vir: VirasoroEngine) -> VerificationReport:
    return run_comparisons(
        "one-point-fixtures",
        {"n_max": 5},
        ((n, as_polynomial(n, vec), vir.weighted_correlator(0, (n,))) for n, vec in closedforms.G01_NUMERATORS.items()),
    )


def suite_narayana_law(vir: VirasoroEngine, n_max: int) -> VerificationReport:
    if n_max < 1:
        raise ValueError(f"the Narayana law needs n_max >= 1, got {n_max}")

    def comparisons():
        for n in range(1, n_max + 1):
            yield ((n, "row"), closedforms.narayana_one_point_law(n), vir.weighted_correlator(0, (n,)))
            row_sum = sum(closedforms.narayana(n, k) for k in range(1, n + 1))
            yield ((n, "catalan"), closedforms.catalan(n), row_sum)

    return run_comparisons("narayana-law", {"n_max": n_max}, comparisons())


def suite_closed_form(vir: VirasoroEngine, which: str, order: int) -> VerificationReport:
    which = which.upper()
    if which not in closedforms.CLOSED_FORM_TARGETS:
        raise KeyError(f"unknown closed form {which!r}; expected one of {', '.join(closedforms.CLOSED_FORM_TARGETS)}")
    g, n = closedforms.CLOSED_FORM_TARGETS[which]

    def comparisons():
        closed = closedforms.dessin_closed_series(which, order)
        direct = vir.npoint_series(g, n, order)
        for key in index_tuples(n, order):
            yield key, closed.coefficient(key), direct.coefficient(key)

    return run_comparisons(f"closed-form:{which}", {"which": which, "g": g, "n": n, "order": order}, comparisons())


def suite_eo_base(eo: EOEngine) -> VerificationReport:
    def comparisons():
        yield (0, 3), W03_DISPLAY, eo.omega(0, 3).poly
        yield (1, 1), W11_DISPLAY, eo.omega(1, 1).poly

    return run_comparisons("eo-base", {}, comparisons())


def suite_t_rows(n_max: int = 20) -> VerificationReport:
    if n_max < 0:
        raise ValueError(f"the T rows need n_max >= 0, got {n_max}")

    def comparisons():
        for n, expected in enumerate(airy.T_ROWS):
            yield (f"row{n}", expected, [int(x) for x in airy.t_row(n).values])
        for n in range(n_max + 1):
            row = airy.t_row(n)  # integrality asserted inside
            yield ((n, "symmetric"), tuple(row.values), tuple(reversed(row.values)))

    return run_comparisons("t-rows", {"n_max": n_max}, comparisons())


# -- the acceptance matrix (verify --all) ---------------------------------------------

SuiteRunner = Callable[[], List[VerificationReport]]


def _shared_engines(run: Callable[[VirasoroEngine, EOEngine], List[VerificationReport]]) -> SuiteRunner:
    """A runner whose reports share one new engine of each kind, so lower
    correlators and forms are computed once per matrix entry."""
    return lambda: run(VirasoroEngine(), EOEngine())


def acceptance_matrix() -> List[Tuple[str, int, SuiteRunner]]:
    """The full verification matrix: (name, required order budget, runner)."""
    return [
        ("one-point-fixtures", 6, lambda: [suite_one_point_fixtures(VirasoroEngine())]),
        ("narayana-law", 26, lambda: [suite_narayana_law(VirasoroEngine(), 25)]),
        ("two-point-closed", 12, lambda: [suite_closed_form(VirasoroEngine(), "G02", 12)]),
        ("fixture-forms", 10, _shared_engines(
            lambda vir, eo: [suite_closed_form(vir, which, 10) for which in ("G03", "G11")])),
        ("eo-base", 4, lambda: [suite_eo_base(EOEngine())]),
        ("main-theorem", 10, _shared_engines(lambda vir, eo: [
            eo.verify_main_theorem(g, n, 10, vir) for g, n in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)]])),
        ("kp-oracle", 12, lambda: [VirasoroEngine().kp_oracle_report(12)]),
        ("operator-form", 8, _shared_engines(
            lambda vir, eo: [vir.operator_form_report(g, n, 8) for g, n in [(0, 2), (1, 0), (1, 1)]])),
        ("airy-local", 6, lambda: [suite_t_rows(20)]
         + [airy.local_identity_check(name, 6) for name in airy.local_identity_names()]),
        ("catalog", 12, lambda: [
            closedforms.catalog_check(key, order) for key, order in [
                ("hermitian/one", 12), ("hermitian/two", 8), ("wk/one", 8), ("wk/two", 8),
                ("even-coupling/one", 10), ("even-coupling/two", 10)]]),
        ("identities", 10, lambda: [closedforms.gf_identity_check(name, 10) for name in closedforms.identity_names()]),
    ]


def suite_all(order_budget: int):
    """Run every suite whose required order fits the budget; others are skipped."""
    matrix = acceptance_matrix()
    smallest = min(required for _, required, _ in matrix)
    if order_budget < smallest:
        raise ValueError(f"order budget {order_budget} runs no suite; the smallest required order is {smallest}")
    results = []
    for name, required, runner in matrix:
        if required > order_budget:
            results.append((name, "skipped", []))
            continue
        reports = runner()
        results.append((name, "pass" if all(r.passed for r in reports) else "fail", reports))
    return results


# -- single suites (verify --suite) ------------------------------------------------

# name -> (default order, required flags, runner(args, order)); a suite whose
# default order is None takes no order
SUITES = {
    "one-point-fixtures": (None, (), lambda args, order: suite_one_point_fixtures(_engine_for(args))),
    "narayana-law": (25, (), lambda args, order: suite_narayana_law(_engine_for(args), order)),
    "closed-form": (10, ("which",), lambda args, order: suite_closed_form(_engine_for(args), args.which, order)),
    "eo-base": (None, (), lambda args, order: suite_eo_base(EOEngine())),
    "main-theorem": (10, ("g", "n"), lambda args, order: EOEngine().verify_main_theorem(
        args.g, args.n, order, _engine_for(args))),
    "kp-oracle": (12, (), lambda args, order: _engine_for(args).kp_oracle_report(order)),
    "operator-form": (8, ("g", "n"), lambda args, order: _engine_for(args).operator_form_report(
        args.g, args.n - 1, order)),
    "curve-identity": (20, (), lambda args, order: EOEngine().curve_identity_report(order)),
    "t-rows": (20, (), lambda args, order: suite_t_rows(order)),
    "local": (6, ("name",), lambda args, order: airy.local_identity_check(args.name, order)),
    "catalog": (8, ("name",), lambda args, order: closedforms.catalog_check(args.name, order)),
    "identity": (10, ("name",), lambda args, order: closedforms.gf_identity_check(args.name, order)),
}


# -- output helpers ---------------------------------------------------------------


def emit(obj, fmt: str, text_renderer=None) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        print(text_renderer(obj) if text_renderer else obj)


def render_report_text(payload: dict) -> str:
    status = payload["status"].upper()
    params = " ".join(f"{k}={v}" for k, v in payload["parameters"].items())
    line = f"{status} {payload['suite']} {params} ({payload['checked_count']} checks)"
    if payload.get("first_discrepancy"):
        d = payload["first_discrepancy"]
        line += f"\n  first discrepancy at {d['location']}: expected {d['expected']}, got {d['actual']}"
    return line


# -- command implementations -------------------------------------------------------


def cmd_correlator(args) -> int:
    parts = _parse_parts(args.parts)
    cache_dir = resolve_cache_dir(args.cache)
    engine = load_engine(cache_dir)
    value = (
        engine.weighted_correlator(args.genus, parts)
        if args.weighted
        else engine.raw_correlator(args.genus, parts)
    )
    save_engine(cache_dir, engine)
    payload = {
        "genus": args.genus,
        "parts": sorted(parts),
        "weighted": bool(args.weighted),
        "poly": value.to_json(("s", "u", "v")),
    }
    emit(payload, args.format, lambda p: str(value))
    return 0


def cmd_npoint(args) -> int:
    cache_dir = resolve_cache_dir(args.cache)
    engine = load_engine(cache_dir)
    series = engine.npoint_series(args.genus, args.n, args.order)
    save_engine(cache_dir, engine)
    payload = series.to_json()
    emit(payload, args.format, lambda p: "\n".join(
        f"{key}: {series.coefficient(key)}" for key in series.keys()
    ))
    return 0


def cmd_eo(args) -> int:
    form = EOEngine().omega(args.g, args.n)
    if args.format == "json":
        sys.stdout.writelines(form.json_chunks())
        sys.stdout.write("\n")
    else:
        print(form.poly)
    return 0


def cmd_expand(args) -> int:
    series = closedforms.dessin_closed_series(args.which, args.order)
    payload = series.to_json()
    emit(payload, args.format, lambda p: "\n".join(
        f"{key}: {series.coefficient(key)}" for key in series.keys()
    ))
    return 0


def cmd_times(args) -> int:
    y = airy.y_branch_series(args.branch, args.order)
    payload = {
        "branch": args.branch,
        "order": args.order,
        "alphabet": ["qs", "qa", "qb", "r"],
        "coefficients": [
            {"k": k, "poly": c.to_json(("qs", "qa", "qb", "r"))} for k, c in y.items()
        ],
    }
    emit(payload, args.format, lambda p: "\n".join(f"xi^{k}: {c}" for k, c in y.items()))
    return 0


def cmd_identity(args) -> int:
    report = closedforms.gf_identity_check(args.name, args.order)
    payload = {
        "name": args.name,
        "order": args.order,
        "status": report.status,
        "first_discrepancy": report.first_discrepancy,
        **({} if args.seedless else {"elapsed_ms": report.elapsed_ms}),
    }
    emit(payload, args.format, lambda p: f"{report.status.upper()} {args.name} order={args.order}")
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    if args.list:
        names = {
            "suites": list(SUITES),
            "matrix": [name for name, _, _ in acceptance_matrix()],
            "identities": closedforms.identity_names(),
            "catalog": closedforms.catalog_names(),
            "local": airy.local_identity_names(),
            "closed-forms": sorted(closedforms.CLOSED_FORM_TARGETS),
        }
        emit(names, args.format, lambda p: "\n".join(f"{k}: {', '.join(v)}" for k, v in names.items()))
        return 0

    if args.all:
        results = suite_all(26 if args.order_budget is None else args.order_budget)
        lines = []
        for name, status, reports in results:
            if status == "skipped":
                lines.append({"suite": name, "status": "skipped"})
            lines.extend(report.to_json(include_elapsed=not args.seedless) for report in reports)
        statuses = [status for _, status, _ in results]
        summary = {
            "total": len(results),
            "passed": statuses.count("pass"),
            "failed": statuses.count("fail"),
            "skipped": statuses.count("skipped"),
        }
        if args.format == "json":
            print(json.dumps({"reports": lines, "summary": summary}, indent=2))
        else:
            for payload in lines:
                print(render_report_text(payload) if "parameters" in payload else f"SKIPPED {payload['suite']}")
            print(f"summary: {summary['passed']} passed, {summary['failed']} failed, {summary['skipped']} skipped")
        return 0 if summary["failed"] == 0 else 1

    if not args.suite:
        raise UsageError("verify needs --suite NAME, --all or --list")
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; run verify --list for valid names")
    default_order, needs, runner = SUITES[args.suite]
    _need(args, *needs)
    report = runner(args, default_order if args.order is None else args.order)
    emit(report.to_json(include_elapsed=not args.seedless), args.format, render_report_text)
    return 0 if report.passed else 1


def _engine_for(args) -> VirasoroEngine:
    return load_engine(resolve_cache_dir(args.cache))


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"suite {args.suite!r} needs --{name}")


def cmd_cache(args) -> int:
    cache_dir = resolve_cache_dir(args.cache)
    path = cache_dir / CACHE_FILE
    if args.action == "info":
        table = _stored_table(path)
        exists = table is not None
        entries = len(table) if exists else 0
        emit(
            {"path": str(path), "exists": exists, "entries": entries},
            args.format,
            lambda p: f"{path}: {'%d entries' % entries if exists else 'absent'}",
        )
        return 0
    if args.action == "clear":
        try:
            path.unlink()
            existed = True
        except (FileNotFoundError, NotADirectoryError):
            existed = False
        except IsADirectoryError as exc:
            raise UsageError(f"cannot clear the correlator cache {path}: {exc}") from exc
        emit({"path": str(path), "removed": existed}, args.format, lambda p: f"removed: {existed}")
        return 0
    if args.action == "warm":
        engine = load_engine(cache_dir)
        order = 10 if args.order is None else args.order
        for n in range(1, 3):
            for g in range(0, 3):
                if 2 * g - 2 + n > 0 or (g, n) in ((0, 1), (0, 2)):
                    engine.npoint_series(g, n, order)
        save_engine(cache_dir, engine)
        emit({"path": str(path), "entries": len(engine.table)}, args.format,
             lambda p: f"{path}: {len(engine.table)} entries")
        return 0
    raise UsageError(f"unknown cache action {args.action!r}")


class UsageError(Exception):
    pass


def _parse_parts(text: str):
    try:
        parts = tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError as exc:
        raise UsageError(f"cannot parse --parts {text!r}: {exc}") from exc
    if not parts or any(a < 1 for a in parts):
        raise UsageError("--parts needs a comma-separated list of positive integers")
    return parts


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dessin",
        description="Exact dessin correlators: Virasoro recursion, topological recursion, and identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache=False):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seedless", action="store_true",
                       help="omit timing fields so output is byte-identical across runs")
        if cache:
            p.add_argument("--cache", help="cache directory (overrides DESSIN_CACHE_DIR)")

    p = sub.add_parser("correlator", help="one correlator value")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--parts", required=True, help="comma-separated positive integers, e.g. 1,2,2")
    p.add_argument("--weighted", action="store_true", help="multiply by the product of the parts")
    common(p, cache=True)

    p = sub.add_parser("npoint", help="truncated n-point expansion from the recursion")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    common(p, cache=True)

    p = sub.add_parser("eo", help="a topological-recursion differential w_{g,n}")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("expand", help="expand a closed form (G01, G02, G03, G11)")
    p.add_argument("--which", required=True)
    p.add_argument("--order", type=int, required=True)
    common(p)

    p = sub.add_parser("times", help="local branch-point expansion coefficients of y")
    p.add_argument("--branch", choices=("plus", "minus"), required=True)
    p.add_argument("--order", type=int, required=True)
    common(p)

    p = sub.add_parser("identity", help="check one generating-function identity")
    p.add_argument("--name", required=True)
    p.add_argument("--order", type=int, required=True)
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite")
    p.add_argument("--list", action="store_true", help="list suite, matrix, identity and catalog names")
    p.add_argument("--all", action="store_true", help="run the full acceptance matrix")
    p.add_argument("--order-budget", type=int, default=None)
    p.add_argument("--g", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--which")
    p.add_argument("--name")
    common(p, cache=True)

    p = sub.add_parser("cache", help="inspect or manage the correlator cache")
    p.add_argument("action", choices=("info", "clear", "warm"))
    p.add_argument("--order", type=int)
    common(p, cache=True)

    return parser


def main(argv=None) -> int:
    # correlators grow without bound (W_0 of n ones is (n-1)! s^n u v); print, save and load them all
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, KeyError, ValueError, CacheFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
