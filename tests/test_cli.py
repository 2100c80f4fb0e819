import contextlib
import io
import json
from math import factorial
from pathlib import Path

import pytest

from dessin import cli, closedforms
from dessin.laurent import LaurentPolynomial
from dessin.virasoro import PartitionKey


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_correlator_weighted_four(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "correlator", "--genus", "0", "--parts", "4", "--weighted", "--cache", str(tmp_path)
    )
    assert code == 0
    payload = json.loads(out)
    poly = LaurentPolynomial.from_json(payload["poly"])
    U, V, S = (LaurentPolynomial.variable(n) for n in "uvs")
    assert poly == S ** 4 * U * V * (U ** 3 + 6 * U ** 2 * V + 6 * U * V ** 2 + V ** 3)


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    """An unexpected exception is reported in one line with exit 3, never 1."""
    def broken(args):
        raise RuntimeError("the correlator command broke")

    monkeypatch.setattr(cli, "cmd_correlator", broken)
    code, out, err = run_cli(capsys, "correlator", "--genus", "0", "--parts", "1", "--cache", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: the correlator command broke\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [1200, 2000])
def test_deep_planar_correlators_need_no_warm_cache(tmp_path, capsys, n):
    """W_0(1^n) = (n-1) W_0(1^(n-1)), so the value is (n-1)! s^n u v: Tutte's planar count at u = v = s = 1.
    From a fresh cache the query is as deep as n; 2000 parts give a 19043-bit coefficient, past the
    4300-digit limit on int-string conversion, which the output, the saved cache and its reload all pass."""
    parts = ",".join(["1"] * n)
    code, out, err = run_cli(capsys, "correlator", "--genus", "0", "--parts", parts, "--cache", str(tmp_path))
    assert (code, err) == (0, "")
    # the command lifted the conversion limit for this process, so the test can write 1999! too
    expected = {"alphabet": ["s", "u", "v"], "terms": [{"e": [n, 1, 1], "c": f"{factorial(n - 1)}/1"}]}
    assert json.loads(out)["poly"] == expected
    saved = (tmp_path / cli.CACHE_FILE).read_bytes()

    code, out, err = run_cli(capsys, "correlator", "--genus", "0", "--parts", parts, "--weighted",
                             "--cache", str(tmp_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["poly"] == expected
    assert (tmp_path / cli.CACHE_FILE).read_bytes() == saved  # read from the cache, nothing new to write
    code, out, _ = run_cli(capsys, "correlator", "--genus", "0", "--parts", parts, "--format", "text",
                           "--cache", str(tmp_path))
    assert code == 0 and out == f"{factorial(n - 1)}*s^{n}*u*v\n"


def test_verify_main_theorem_passes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "main-theorem", "--g", "1", "--n", "1", "--order", "9",
        "--cache", str(tmp_path), "--seedless",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert "elapsed_ms" not in payload


def test_identity_type_b(capsys):
    code, out, _ = run_cli(capsys, "identity", "--name", "typeB-gf", "--order", "10", "--seedless")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_identity_failure_exit_code(capsys, monkeypatch):
    from dessin import closedforms

    def broken(order):
        yield ("nowhere", 1, 2)

    monkeypatch.setitem(closedforms.GF_IDENTITIES, "narayana-gf", broken)
    code, out, _ = run_cli(capsys, "identity", "--name", "narayana-gf", "--order", "4")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "not-a-suite")
    assert code == 2 and "not-a-suite" in err
    code, _, err = run_cli(capsys, "correlator", "--genus", "0", "--parts", "zero")
    assert code == 2
    code, _, err = run_cli(capsys, "identity", "--name", "bogus", "--order", "5")
    assert code == 2 and "bogus" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    names = json.loads(out)
    assert "typeD-gf" in names["identities"]
    assert "hermitian/one" in names["catalog"]
    assert "bergman-pp" in names["local"]
    assert "main-theorem" in names["suites"]
    assert "t-rows" in names["suites"]
    assert len(names["matrix"]) == 11 and "two-point-closed" in names["matrix"]


def listed_suites():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["verify", "--list"])
    return json.loads(buf.getvalue())["suites"]


# the least each suite needs, at small orders
SUITE_ARGS = {
    "main-theorem": ("--g", "0", "--n", "3", "--order", "6"),
    "operator-form": ("--g", "0", "--n", "3", "--order", "6"),
    "closed-form": ("--which", "G01", "--order", "5"),
    "catalog": ("--name", "hermitian/one", "--order", "4"),
    "local": ("--name", "bergman-pp", "--order", "4"),
    "identity": ("--name", "typeB-gf", "--order", "6"),
}


@pytest.mark.parametrize("suite", listed_suites())
def test_every_listed_suite_runs(suite, tmp_path, capsys):
    args = SUITE_ARGS.get(suite, ("--order", "6"))
    code, out, err = run_cli(capsys, "verify", "--suite", suite, *args, "--seedless", "--cache", str(tmp_path))
    assert code == 0, err
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("suite,args,flag", [
    ("main-theorem", ("--n", "3"), "--g"),
    ("operator-form", ("--g", "0"), "--n"),
    ("closed-form", ("--order", "5"), "--which"),
    ("catalog", ("--order", "4"), "--name"),
])
def test_missing_suite_arguments_exit_two(suite, args, flag, capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", suite, *args)
    assert code == 2 and flag in err


def test_explicit_order_zero_is_not_replaced(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "identity", "--name", "typeB-gf", "--order", "0")
    assert code == 2, err


@pytest.mark.parametrize("suite,order,message", [
    ("kp-oracle", "0", "n_max >= 1"),
    ("narayana-law", "0", "n_max >= 1"),
    ("t-rows", "-1", "n_max >= 0"),
    ("main-theorem", "5", "cannot hold any 3-point tuple"),
    ("closed-form --which G01", "1", "cannot hold any 1-point tuple (need >= 2)"),
    ("closed-form --which G03", "1", "cannot hold any 3-point tuple (need >= 6)"),
    ("closed-form --which G11", "1", "cannot hold any 1-point tuple (need >= 2)"),
    ("catalog --name dessin/two", "2", "cannot hold any 2-point tuple (need >= 4)"),
    ("catalog --name dessin/two", "3", "cannot hold any 2-point tuple (need >= 4)"),
    ("catalog --name dessin/one-genus-one", "2", "nothing to check"),
    ("catalog --name dessin/one-genus-one", "3", "nothing to check"),
    ("catalog --name wk/two", "-1", "order >= 1"),
    ("catalog --name wk/one", "0", "order >= 1"),
    ("catalog --name hermitian/one", "0", "order >= 1"),
    ("catalog --name even-coupling/one", "0", "order >= 1"),
    ("curve-identity", "-1", "order >= 2"),
    ("curve-identity", "1", "order >= 2"),
    ("expand --which G02", "3", "cannot hold any 2-point tuple (need >= 4)"),
    ("expand --which G03", "2", "cannot hold any 3-point tuple (need >= 6)"),
    ("expand --which G03", "5", "cannot hold any 3-point tuple (need >= 6)"),
])
def test_orders_with_nothing_to_check_exit_two(suite, order, message, tmp_path, capsys):
    """An order that leaves a suite nothing (or only fixtures) to check is a
    usage error, not a vacuous pass; so is one that leaves an expansion empty."""
    name, *extra = suite.split()
    if name == "main-theorem":
        extra = ["--g", "0", "--n", "3"]
    if name == "expand":
        code, out, err = run_cli(capsys, name, *extra, "--order", order)
    else:
        code, out, err = run_cli(capsys, "verify", "--suite", name, "--order", order, *extra, "--cache", str(tmp_path))
    assert code == 2 and out == ""
    assert message in err


def test_verify_all_seedless_matches_the_golden_file(capsys):
    """verify --all --seedless is byte-identical to the committed output."""
    code, out, _ = run_cli(capsys, "verify", "--all", "--seedless")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "verify_all_seedless.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("which", ["G01", "G02", "G03", "G11"])
def test_expand_matches_the_golden_file(which, capsys):
    """expand --format text at order 12 is byte-identical to the committed output."""
    code, out, _ = run_cli(capsys, "expand", "--which", which, "--order", "12", "--format", "text")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / f"expand_{which}_order12.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (0, 5), (1, 3), (2, 2), (3, 1)])
def test_eo_matches_the_golden_file(g, n, fmt, capsys):
    """eo prints each form's polynomial byte-identical to the committed output."""
    code, out, _ = run_cli(capsys, "eo", "--g", str(g), "--n", str(n), "--format", fmt)
    assert code == 0
    suffix = "txt" if fmt == "text" else "json"
    assert out == (Path(__file__).parent / "data" / f"eo_g{g}n{n}.{suffix}").read_text(encoding="utf-8")


def test_a_wrong_length_vector_from_a_closed_form_exits_three(monkeypatch, tmp_path, capsys):
    """A vector the program wrote itself with the wrong length is an internal
    fault (exit 3), not a usage error."""
    rows = closedforms.delta_power_rows
    monkeypatch.setattr(closedforms, "delta_power_rows", lambda m, count: [row + (0,) for row in rows(m, count)])
    code, out, err = run_cli(capsys, "verify", "--suite", "closed-form", "--which", "G11", "--order", "8",
                             "--cache", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("internal error: AssertionError")


@pytest.mark.parametrize("budget", ["3", "0", "-1"])
def test_verify_all_below_the_smallest_required_order_exits_two(budget, capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--order-budget", budget, "--seedless")
    assert code == 2 and out == ""
    assert "runs no suite; the smallest required order is 4" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_npoint_needs_at_least_one_slot(n, tmp_path, capsys):
    code, out, err = run_cli(capsys, "npoint", "--genus", "0", "--n", n, "--order", "4", "--cache", str(tmp_path))
    assert code == 2 and out == ""
    assert "needs n >= 1" in err


def test_eo_json_schema(capsys):
    code, out, _ = run_cli(capsys, "eo", "--g", "0", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["form"]["alphabet"] == ["a", "b", "z1", "z2", "z3"]


def test_eo_negative_genus_exits_two(capsys):
    code, out, err = run_cli(capsys, "eo", "--g", "-1", "--n", "5")
    assert code == 2
    assert out == ""
    assert "genus must be nonnegative" in err


def test_expand_and_npoint_agree(tmp_path, capsys):
    code, out_expand, _ = run_cli(capsys, "expand", "--which", "G11", "--order", "7")
    assert code == 0
    code, out_npoint, _ = run_cli(
        capsys, "npoint", "--genus", "1", "--n", "1", "--order", "7", "--cache", str(tmp_path)
    )
    assert code == 0
    a = json.loads(out_expand)["coefficients"]
    b = json.loads(out_npoint)["coefficients"]
    assert a == b


def test_times_command(capsys):
    code, out, _ = run_cli(capsys, "times", "--branch", "minus", "--order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["alphabet"] == ["qs", "qa", "qb", "r"]
    first = payload["coefficients"][0]
    assert first["k"] == 1
    assert any("*i" in term["c"] for term in first["poly"]["terms"])


def test_cache_reuse_changes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DESSIN_CACHE_DIR", str(tmp_path))
    cold_code, cold_out, _ = run_cli(capsys, "npoint", "--genus", "0", "--n", "2", "--order", "8")
    assert cold_code == 0
    assert (tmp_path / "correlators.json").exists()
    warm_code, warm_out, _ = run_cli(capsys, "npoint", "--genus", "0", "--n", "2", "--order", "8")
    assert warm_code == 0
    assert cold_out == warm_out


def test_cache_flag_beats_environment(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("DESSIN_CACHE_DIR", str(env_dir))
    code, _, _ = run_cli(
        capsys, "correlator", "--genus", "0", "--parts", "2", "--cache", str(flag_dir)
    )
    assert code == 0
    assert (flag_dir / "correlators.json").exists()
    assert not (env_dir / "correlators.json").exists()


def test_cache_info_and_clear(tmp_path, capsys):
    run_cli(capsys, "correlator", "--genus", "0", "--parts", "3", "--cache", str(tmp_path))
    code, out, _ = run_cli(capsys, "cache", "info", "--cache", str(tmp_path))
    assert code == 0
    assert json.loads(out)["entries"] >= 1
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache", str(tmp_path))
    assert code == 0 and json.loads(out)["removed"] is True
    code, out, _ = run_cli(capsys, "cache", "info", "--cache", str(tmp_path))
    assert json.loads(out)["exists"] is False


def _exists_before_a_concurrent_clear(monkeypatch):
    """Path.exists says True, as it would just before another process's
    `cache clear` removes the file; the directory is in fact empty."""
    monkeypatch.setattr(Path, "exists", lambda self, **kwargs: True)


def test_a_cache_removed_mid_query_reads_as_absent(tmp_path, capsys, monkeypatch):
    _exists_before_a_concurrent_clear(monkeypatch)
    code, out, err = run_cli(capsys, "correlator", "--genus", "0", "--parts", "2", "--cache", str(tmp_path))
    assert (code, err) == (0, "")
    S, U, V = (LaurentPolynomial.variable(n) for n in "suv")
    assert LaurentPolynomial.from_json(json.loads(out)["poly"]) == S ** 2 * U * V * (U + V) / 2


def test_cache_info_and_clear_on_a_cache_removed_mid_query(tmp_path, capsys, monkeypatch):
    _exists_before_a_concurrent_clear(monkeypatch)
    code, out, _ = run_cli(capsys, "cache", "info", "--cache", str(tmp_path))
    assert code == 0 and json.loads(out) == {"path": str(tmp_path / cli.CACHE_FILE), "exists": False, "entries": 0}
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache", str(tmp_path))
    assert code == 0 and json.loads(out)["removed"] is False


def test_an_unreadable_cache_still_exits_two(tmp_path, capsys):
    (tmp_path / cli.CACHE_FILE).mkdir()
    code, _, err = run_cli(capsys, "correlator", "--genus", "0", "--parts", "1", "--cache", str(tmp_path))
    assert code == 2
    assert "unreadable correlator cache" in err


@pytest.mark.parametrize("argv", [["correlator", "--genus", "0", "--parts", "3"], ["cache", "warm"]])
@pytest.mark.parametrize("cache", ["file", "file/sub"])
def test_a_cache_path_through_a_regular_file_exits_two(argv, cache, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    path = tmp_path / cache
    code, out, err = run_cli(capsys, *argv, "--cache", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write the correlator cache {path / cli.CACHE_FILE}: ")


def test_clearing_a_cache_that_is_a_directory_exits_two(tmp_path, capsys):
    (tmp_path / cli.CACHE_FILE).mkdir()
    code, out, err = run_cli(capsys, "cache", "clear", "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot clear the correlator cache {tmp_path / cli.CACHE_FILE}: ")
    assert (tmp_path / cli.CACHE_FILE).is_dir()


def test_corrupt_cache_is_explicit_error(tmp_path, capsys):
    (tmp_path / "correlators.json").write_text("{broken")
    code, _, err = run_cli(
        capsys, "correlator", "--genus", "0", "--parts", "1", "--cache", str(tmp_path)
    )
    assert code == 2
    assert "cache" in err


def test_seedless_outputs_are_byte_identical(tmp_path, capsys):
    args = ("verify", "--suite", "kp-oracle", "--order", "6", "--seedless", "--cache", str(tmp_path))
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_suite_all_respects_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--order-budget", "4", "--seedless")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["skipped"] > 0
    assert payload["summary"]["failed"] == 0


def test_jobs_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--all", "--jobs", "2"])
    assert exc.value.code == 2


def test_cache_warm(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cache", "warm", "--order", "8", "--cache", str(tmp_path))
    assert code == 0
    assert json.loads(out)["entries"] > 0
    assert (tmp_path / "correlators.json").exists()


def test_cache_warm_order_zero_is_not_replaced(tmp_path, capsys):
    code, _, err = run_cli(capsys, "cache", "warm", "--order", "0", "--cache", str(tmp_path))
    assert code == 2
    assert "order 0" in err


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "eo-base", "--format", "text", "--seedless"
    )
    assert code == 0
    assert out.startswith("PASS eo-base")


@pytest.mark.parametrize("argv", [
    ("correlator", "--genus", "1", "--parts", "2,2"),
    ("npoint", "--genus", "0", "--n", "2", "--order", "6"),
])
def test_a_repeated_query_leaves_the_cache_file_untouched(argv, tmp_path, capsys):
    path = tmp_path / cli.CACHE_FILE
    run_cli(capsys, *argv, "--cache", str(tmp_path))
    before, stamp = path.read_bytes(), path.stat().st_mtime_ns
    code, _, _ = run_cli(capsys, *argv, "--cache", str(tmp_path))
    assert code == 0
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == stamp


def test_a_query_that_adds_entries_rewrites_the_cache(tmp_path, capsys):
    path = tmp_path / cli.CACHE_FILE
    run_cli(capsys, "correlator", "--genus", "0", "--parts", "3", "--cache", str(tmp_path))
    before = path.read_bytes()
    run_cli(capsys, "correlator", "--genus", "1", "--parts", "4,2", "--cache", str(tmp_path))
    assert path.read_bytes() != before
    assert json.loads(before)["entries"][0] in json.loads(path.read_bytes())["entries"]


def test_a_query_that_stores_nothing_creates_no_cache_directory(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    code, _, _ = run_cli(capsys, "correlator", "--genus", "5", "--parts", "1", "--cache", str(cache_dir))
    assert code == 0
    assert not cache_dir.exists()


def test_a_reader_does_not_clobber_a_writer(tmp_path):
    seed = cli.load_engine(tmp_path)
    seed.raw_correlator(0, (3,))
    cli.save_engine(tmp_path, seed)
    reader = cli.load_engine(tmp_path)
    writer = cli.load_engine(tmp_path)
    writer.raw_correlator(1, (4, 2))
    cli.save_engine(tmp_path, writer)
    reader.raw_correlator(0, (3,))
    cli.save_engine(tmp_path, reader)
    entries = cli.load_engine(tmp_path).table.entries
    assert len(entries) == len(writer.table)
    assert PartitionKey.make(1, (2, 4)) in entries


def test_the_parser_is_built_once_and_commands_are_looked_up_at_call_time(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_eo", broken)
    code, out, err = run_cli(capsys, "eo", "--g", "0", "--n", "3")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"
