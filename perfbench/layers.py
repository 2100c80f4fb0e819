"""Per-layer spans and counters for the dessin package, attached from outside.

``Tracer.install`` replaces public functions and methods of the package's
modules with wrappers that open a span named ``<layer>.<call>`` around each
call and update counters.  Nothing under ``src/`` changes: module functions
are rebound in every ``dessin`` module that imported them, and methods are
replaced on their class, so calls from inside the package go through the
wrappers too.  Install only in a process that runs one traced pass; the
replacement is process-wide and is not undone.

Two kinds of work happen lazily inside iterators: the comparison streams that
``run_comparisons`` consumes, and generator functions such as
``index_tuples``.  Each step of a comparison stream is a span named
``<caller layer>.comparisons``, so the work of producing a value is charged to
the layer that asked for the comparison and ``report`` keeps only the loop
and the equality checks.  Each step of a wrapped generator is a span with the
generator's own name.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from typing import Callable, Dict, Optional

from spans import Recorder

# method name on the class -> span suffix; dunder pairs share one span name
LAURENT_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div", "__pow__": "pow",
    "substitute": "substitute", "truncate": "truncate", "coefficient_of": "coefficient_of",
    "to_json": "to_json", "from_json": "from_json",
}
SERIES_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul", "invert": "invert", "sqrt": "sqrt", "unit_pow": "unit_pow",
    "compose": "compose", "differentiate": "differentiate", "from_polynomial": "from_polynomial",
    "from_map": "from_map", "as_polynomial": "as_polynomial", "matches": "matches",
}
# hot accessors that can raise SeriesWindowError: counted, not spanned
SERIES_COUNTED = ("coefficient", "truncated")
NPOINT_METHODS = ("coefficient", "set_coefficient", "keys", "first_difference", "to_json", "from_json")
VIRASORO_METHODS = (
    "raw_correlator", "weighted_correlator", "npoint_series", "one_point_all_genus", "kp_one_point",
    "assemble_operator_form", "kp_oracle_report", "operator_form_report",
)
EO_ENGINE_METHODS = ("verify_main_theorem", "z_square_series", "z_of_x_series",
                     "curve_identity_report", "recursion_kernel_expansion")
EO_FORM_METHODS = {"check_invariants": "check_invariants", "evaluated": "evaluated", "to_json": "form_to_json"}


class Tracer:
    """Owns the span recorder and the counters of one traced pass."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.counts: Dict[str, int] = {
            "laurent.mul_calls": 0, "laurent.mul_pairs": 0, "laurent.add_calls": 0, "laurent.max_terms": 0,
            "series.mul_calls": 0, "series.window_errors": 0, "npoint.coeff_lookups": 0,
            "virasoro.memo_entries": 0, "virasoro.memo_hits": 0, "virasoro.memo_misses": 0,
            "virasoro.cache_bytes": 0, "report.checks": 0,
        }
        self.form_terms: Dict[str, int] = {}
        self._loading = 0

    # -- wrapping primitives ---------------------------------------------------

    def span(self, fn: Callable, name, after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; name is a string or a function of (args, kwargs)."""
        rec = self.rec
        if inspect.isgeneratorfunction(fn):
            nid = rec.name_id(name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self.spanned_iter(fn(*args, **kwargs), nid)

            return gen_wrapper

        fixed = rec.name_id(name) if isinstance(name, str) else None
        open_, close, name_id = rec.open, rec.close, rec.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(fixed if fixed is not None else name_id(name(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                close(idx)

        return wrapper

    def spanned_iter(self, iterator, nid: int):
        open_, close = self.rec.open, self.rec.close
        iterator = iter(iterator)
        while True:
            idx = open_(nid)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                close(idx)
            yield item

    def count_window_errors(self, fn: Callable, window_error: type) -> Callable:
        """Count each SeriesWindowError once, where it first leaves a series method."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except window_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    counts["series.window_errors"] += 1
                raise

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from dessin import airy, cli, closedforms, eo, laurent, npoint, report, series, virasoro

        lp_cls = laurent.LaurentPolynomial
        counts = self.counts

        def after_mul(args, result):
            if result is NotImplemented:
                return
            other = args[1]
            other_terms = len(other) if isinstance(other, lp_cls) else int(bool(other))
            counts["laurent.mul_calls"] += 1
            counts["laurent.mul_pairs"] += len(args[0]) * other_terms
            if len(result) > counts["laurent.max_terms"]:
                counts["laurent.max_terms"] = len(result)

        def after_add(args, result):
            if result is NotImplemented:
                return
            counts["laurent.add_calls"] += 1
            if len(result) > counts["laurent.max_terms"]:
                counts["laurent.max_terms"] = len(result)

        laurent_after = {"mul": after_mul, "add": after_add}
        for attr, suffix in LAURENT_METHODS.items():
            self._patch_method(lp_cls, attr, f"laurent.{suffix}", laurent_after.get(suffix))
        for fn_name in ("sum_polys", "mul_trunc", "unit_pow_trunc", "binom_fraction", "lp_mul"):
            self._patch_function(laurent, fn_name, f"laurent.{fn_name}")

        ts_cls = series.TruncatedSeries
        window_error = series.SeriesWindowError

        def after_series_mul(args, result):
            counts["series.mul_calls"] += 1

        for attr, suffix in SERIES_METHODS.items():
            self._patch_method(ts_cls, attr, f"series.{suffix}", after_series_mul if suffix == "mul" else None,
                               window_error=window_error)
        for attr in SERIES_COUNTED:
            setattr(ts_cls, attr, self.count_window_errors(getattr(ts_cls, attr), window_error))
        for fn_name in ("series_sqrt", "series_invert", "series_compose", "residue_coefficient"):
            self._patch_function(series, fn_name, f"series.{fn_name}", window_error=window_error)

        def count_lookup(args, result):
            counts["npoint.coeff_lookups"] += 1

        for attr in NPOINT_METHODS:
            self._patch_method(npoint.NPointSeries, attr, f"npoint.{attr}",
                               count_lookup if attr == "coefficient" else None)
        self._patch_function(npoint, "index_tuples", "npoint.index_tuples")

        for attr in VIRASORO_METHODS:
            self._patch_method(virasoro.VirasoroEngine, attr, f"virasoro.{attr}")
        self._install_memo_counters(virasoro.CorrelatorTable)

        def after_omega(args, result):
            self.form_terms[f"g{result.g}n{result.n}"] = len(result.poly)

        self._patch_method(eo.EOEngine, "omega", lambda a, k: f"eo.omega.g{a[1]}n{a[2]}", after_omega)
        self._patch_method(eo.EOEngine, "to_x_series", lambda a, k: f"eo.to_x.g{a[1]}n{a[2]}")
        for attr in EO_ENGINE_METHODS:
            self._patch_method(eo.EOEngine, attr, f"eo.{attr}")
        for attr, suffix in EO_FORM_METHODS.items():
            self._patch_method(eo.EOForm, attr, f"eo.{suffix}")
        for fn_name in ("spectral_curve", "bergman_kernel", "slot_names", "eo_omega"):
            self._patch_function(eo, fn_name, f"eo.{fn_name}")

        self._install_report(report)
        for module, layer in ((closedforms, "closedforms"), (airy, "airy"), (cli, "cli")):
            for fn_name, fn in list(vars(module).items()):
                if not fn_name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._patch_function(module, fn_name, f"{layer}.{fn_name}")

    def _patch_method(self, cls, attr: str, name, after=None, window_error=None) -> None:
        raw = cls.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapped = self.span(fn, name, after)
        if window_error is not None:
            wrapped = self.count_window_errors(wrapped, window_error)
        setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def _patch_function(self, module, fn_name: str, name: str, window_error=None) -> None:
        original = getattr(module, fn_name)
        wrapped = self.span(original, name)
        if window_error is not None:
            wrapped = self.count_window_errors(wrapped, window_error)
        _rebind(original, wrapped)

    def _install_memo_counters(self, table_cls) -> None:
        """Memo hits and misses from CorrelatorTable.get; entries filled from put
        calls outside a cache load; cache load and save as their own spans."""
        counts = self.counts
        get, put = table_cls.get, table_cls.put

        def counted_get(table, key):
            value = get(table, key)
            counts["virasoro.memo_misses" if value is None else "virasoro.memo_hits"] += 1
            return value

        def counted_put(table, key, value):
            if not self._loading:
                counts["virasoro.memo_entries"] += 1
            return put(table, key, value)

        table_cls.get, table_cls.put = counted_get, counted_put

        load = table_cls.__dict__["load"].__func__
        spanned_load = self.span(load, "virasoro.cache_load")

        def loading(cls, path):
            self._loading += 1
            try:
                return spanned_load(cls, path)
            finally:
                self._loading -= 1

        table_cls.load = classmethod(loading)

        def after_save(args, result):
            counts["virasoro.cache_bytes"] = os.path.getsize(args[1])

        table_cls.save = self.span(table_cls.save, "virasoro.cache_save", after_save)

    def _install_report(self, report) -> None:
        """run_comparisons as report.compare; its stream charged to the caller's layer."""
        original = report.run_comparisons
        rec, counts = self.rec, self.counts
        compare_id = rec.name_id("report.compare")

        @functools.wraps(original)
        def run_comparisons(suite, parameters, comparisons):
            caller = rec.current_name()
            producer = rec.name_id(f"{caller.split('.')[0] if caller else 'report'}.comparisons")
            idx = rec.open(compare_id)
            try:
                result = original(suite, parameters, self.spanned_iter(comparisons, producer))
                counts["report.checks"] += result.checked_count
                return result
            finally:
                rec.close(idx)

        _rebind(original, run_comparisons)
        self._patch_method(report.VerificationReport, "to_json", "report.to_json")


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every dessin module's name for a function, its own and imported ones, at the wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dessin" or mod_name.startswith("dessin."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
