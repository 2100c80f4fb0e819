"""Which modules of src/dessin may reach the truncated-series layer.

Every expansion in the package reads integer rows (closedforms.power_rows and
npoint.convolve).  TruncatedSeries, mul_trunc and unit_pow_trunc stay only as
references for the tests and behind the four EO chart helpers; this fence keeps
new code from coming to depend on them again.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dessin"
# module -> the names it may import from dessin.series
SERIES_IMPORTERS = {"eo.py": {"TruncatedSeries"}, "npoint.py": {"SeriesWindowError"}}
TRUNCATED_PRODUCTS = {"mul_trunc", "unit_pow_trunc"}


@lru_cache(maxsize=None)
def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _names(tree):
    """Every identifier the module mentions: names, attributes, imported names and definitions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def _series_imports(tree):
    """The names a module imports from dessin.series; "*" for the module itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level == 1 and node.module == "series") or node.module == "dessin.series":
                yield from (alias.name for alias in node.names)
            elif node.module in (None, "dessin") and any(alias.name == "series" for alias in node.names):
                yield "*"
        elif isinstance(node, ast.Import) and any(alias.name == "dessin.series" for alias in node.names):
            yield "*"


def test_the_fence_sees_every_module():
    assert {"airy.py", "eo.py", "laurent.py", "npoint.py", "series.py"} <= set(_trees())


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_only_the_chart_helpers_and_the_window_error_come_from_series(module):
    imported = set(_series_imports(_trees()[module]))
    assert imported <= SERIES_IMPORTERS.get(module, set()), (module, imported)


def test_truncated_products_stay_inside_laurent():
    users = {name for name, tree in _trees().items() if name != "laurent.py" and TRUNCATED_PRODUCTS & set(_names(tree))}
    assert not users


def test_airy_does_not_name_truncated_series():
    names = set(_names(_trees()["airy.py"]))
    assert "TruncatedSeries" not in names and not TRUNCATED_PRODUCTS & names
