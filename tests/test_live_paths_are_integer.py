"""Every path the command line reaches computes in integers or exact Fractions.

A LaurentPolynomial is built by one constructor call where a value is compared
or printed.  Its arithmetic, GaussianRational's, the free functions of
dessin.laurent and every method of dessin.series.TruncatedSeries serve only the
tests and the EO chart helpers that the benchmark tracer wraps.

The fence runs a fixed list of commands in two fresh interpreters.  In one,
all of that arithmetic is replaced before any other dessin module is imported,
so import-time constants are covered: a call made while importing is recorded
and let through, so one offending constant does not hide the rest, and a call
made by a command is recorded and raises.  The other runs the commands as they
are.  The fenced run must record no call and print what the plain one prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from dessin import airy, cli, closedforms

SRC = Path(__file__).resolve().parents[1] / "src"

LAURENT_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                      "__truediv__", "__pow__", "inverse_monomial", "substitute", "truncate")
GAUSSIAN_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__")
LAURENT_FUNCTIONS = ("sum_polys", "lp_mul", "mul_trunc", "unit_pow_trunc", "binom_fraction")

FENCE = r"""
import contextlib, importlib.util, inspect, io, json, sys
from pathlib import Path

mode, argvs, src = sys.argv[1], json.loads(sys.argv[2]), Path(sys.argv[3])
laurent_methods, gaussian_methods, functions = json.loads(sys.argv[4])

# the package without running its __init__, which imports every module
spec = importlib.util.spec_from_file_location(
    "dessin", src / "dessin" / "__init__.py", submodule_search_locations=[str(src / "dessin")])
package = importlib.util.module_from_spec(spec)
sys.modules["dessin"] = package
from dessin import coeffs, laurent, series

FENCED_FILES = {"laurent.py", "coeffs.py", "series.py"}
calls, importing = [], [True]


class FencedCall(Exception):
    pass


def raiser(what, original):
    def fenced(*args, **kwargs):
        frame = sys._getframe(1)
        # the caller: past the fenced modules and this script's own wrappers
        while frame is not None and (Path(frame.f_code.co_filename).name in FENCED_FILES
                                     or frame.f_globals is globals()):
            frame = frame.f_back
        code = frame.f_code if frame is not None else None
        where = f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}" if code else "?"
        calls.append(f"{what} from {where}")
        if importing[0]:
            return original(*args, **kwargs)
        raise FencedCall(what)
    return fenced


def fence_method(cls, name):
    raw = cls.__dict__[name]
    original = getattr(cls, name)
    wrapped = raiser(f"{cls.__name__}.{name}", original)
    setattr(cls, name, staticmethod(wrapped) if isinstance(raw, (classmethod, staticmethod)) else wrapped)


if mode == "fenced":
    for name in laurent_methods:
        fence_method(laurent.LaurentPolynomial, name)
    for name in gaussian_methods:
        fence_method(coeffs.GaussianRational, name)
    for name in functions:
        original = getattr(laurent, name)
        for module in (laurent, series):
            if getattr(module, name, None) is original:
                setattr(module, name, raiser(f"laurent.{name}", original))
    for name, raw in list(vars(series.TruncatedSeries).items()):
        if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
            fence_method(series.TruncatedSeries, name)

spec.loader.exec_module(package)
from dessin import cli
importing[0] = False

results = []
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([argv, code, out.getvalue()])
print(json.dumps({"results": results, "calls": sorted(set(calls))}))
"""

CACHE = ["--cache", "cache"]
# verify --suite NAME: each suite at its default order, with each set of flags it is run with
SUITE_FLAGS = {
    "one-point-fixtures": [[]],
    "narayana-law": [[]],
    "closed-form": [["--which", which] for which in sorted(closedforms.CLOSED_FORM_TARGETS)],
    "eo-base": [[]],
    "main-theorem": [["--g", "1", "--n", "2"], ["--g", "0", "--n", "4"]],
    "kp-oracle": [[]],
    "operator-form": [["--g", "1", "--n", "2"], ["--g", "0", "--n", "3"]],
    "curve-identity": [[]],
    "t-rows": [[]],
    "local": [["--name", name] for name in airy.local_identity_names()],
    "catalog": [["--name", name] for name in closedforms.catalog_names()],
    "identity": [["--name", name] for name in closedforms.identity_names()],
}
ARGVS = [
    ["correlator", "--genus", "1", "--parts", "2,3", *CACHE],
    ["correlator", "--genus", "0", "--parts", "1,2,2", "--weighted", "--format", "text", *CACHE],
    ["npoint", "--genus", "1", "--n", "2", "--order", "8", *CACHE],
    ["npoint", "--genus", "0", "--n", "3", "--order", "8", "--format", "text", *CACHE],
    ["eo", "--g", "1", "--n", "2"],
    ["eo", "--g", "0", "--n", "4", "--format", "text"],
    *(["expand", "--which", which, "--order", "8"] for which in sorted(closedforms.CLOSED_FORM_TARGETS)),
    ["expand", "--which", "G11", "--order", "9", "--format", "text"],
    *(["times", "--branch", branch, "--order", "7", "--format", fmt]
      for branch in ("plus", "minus") for fmt in ("json", "text")),
    ["identity", "--name", "typeD-gf", "--order", "8", "--seedless"],
    ["cache", "info", *CACHE],
    ["cache", "warm", "--order", "8", *CACHE],
    ["cache", "info", *CACHE],
    ["cache", "clear", *CACHE],
    ["cache", "info", *CACHE],
    ["verify", "--list"],
    ["verify", "--all", "--seedless"],
    *(["verify", "--suite", suite, *flags, "--seedless", *CACHE]
      for suite, runs in SUITE_FLAGS.items() for flags in runs),
]


def _run(mode, tmp_path):
    """The command list in a fresh interpreter, in its own working directory."""
    workdir = tmp_path / mode
    workdir.mkdir()
    env = {key: value for key, value in os.environ.items() if key != "DESSIN_CACHE_DIR"}
    names = json.dumps([LAURENT_ARITHMETIC, GAUSSIAN_ARITHMETIC, LAURENT_FUNCTIONS])
    proc = subprocess.run([sys.executable, "-c", FENCE, mode, json.dumps(ARGVS), str(SRC), names],
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_commands_cover_every_command_and_suite():
    assert {argv[0] for argv in ARGVS} == {name[4:] for name in vars(cli) if name.startswith("cmd_")}
    assert set(SUITE_FLAGS) == set(cli.SUITES)


def test_live_paths_do_no_polynomial_gaussian_or_series_arithmetic(tmp_path):
    plain = _run("plain", tmp_path)
    assert [code for _, code, _ in plain["results"]] == [0] * len(ARGVS), plain["results"]
    fenced = _run("fenced", tmp_path)
    assert not fenced["calls"], "arithmetic on a live path:\n" + "\n".join(fenced["calls"])
    assert fenced["results"] == plain["results"]
