import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlab.cli
from qlab.cli import MAX_ENUMERATED_ORDER, MAX_SIZE, MAX_TABLE_N, main
from qlab.identities import REGISTRY
from qlab.identities.model import FINITE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_identity_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "R10", "--N", "3", "--order", "30",
        "--samples", "5", "--seed", "7",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 5
    assert all(r["outcome"] == "pass" for r in reports)


def test_verify_unknown_id_exits_2_naming_valid_ids(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "NOSUCH")
    assert code == 2
    assert err.startswith("qlab: error: unknown identity id 'NOSUCH'")
    assert "R01" in err and "R45" in err


def test_verify_zero_samples_is_empty(capsys):
    code, out, _ = run_cli(capsys, "verify", "--samples", "0")
    assert code == 0
    assert json.loads(out) == []
    code, out, _ = run_cli(capsys, "verify", "--samples", "0", "--format", "tsv")
    assert code == 0
    assert out.split("\t") == [
        "id", "env", "N", "T", "outcome",
        "first_mismatch_order", "lhs_coeff", "rhs_coeff", "elapsed_ms\n",
    ]


def test_verify_json_roundtrips_report_fields(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "R01", "--samples", "2", "--order", "12"
    )
    assert code == 0
    for report in json.loads(out):
        assert set(report) == {
            "id", "env", "N", "T", "outcome",
            "first_mismatch_order", "lhs_coeff", "rhs_coeff", "elapsed_ms",
        }
        assert report["id"] == "R01"
        assert report["N"] is None
        assert all("/" in v or v.lstrip("-").isdigit() for v in report["env"].values())


def _strip_timing(payload):
    reports = json.loads(payload)
    for r in reports:
        r["elapsed_ms"] = 0
    return reports


def test_verify_output_is_deterministic_modulo_timing(capsys):
    args = ("verify", "--id", "R06", "--samples", "3", "--order", "15", "--seed", "9")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert _strip_timing(out1) == _strip_timing(out2)


def test_table_spt(capsys):
    code, out, _ = run_cli(capsys, "table", "--stat", "spt", "--max-n", "10")
    assert code == 0
    table = json.loads(out)
    assert table["values"]["4"] == 10


def test_table_n_sc(capsys):
    code, out, _ = run_cli(capsys, "table", "--stat", "n_sc", "--max-n", "5")
    assert code == 0
    assert json.loads(out)["values"]["1"] == 1


def test_table_overlined_largest(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--stat", "overlined_largest_sum", "--max-n", "4"
    )
    assert code == 0
    assert json.loads(out)["values"]["4"] == 17


def test_table_restricted_requires_bound(capsys):
    code, _, err = run_cli(capsys, "table", "--stat", "p_restricted", "--max-n", "5")
    assert code == 2
    assert "--N" in err


def test_table_unknown_stat_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--stat", "nope", "--max-n", "5"])
    assert err.value.code == 2


@pytest.mark.parametrize("stat", ["p_restricted", "spt_restricted"])
def test_table_negative_part_bound_is_usage_error(capsys, stat):
    code, out, err = run_cli(capsys, "table", "--stat", stat, "--N", "-2", "--max-n", "5")
    assert code == 2
    assert out == ""
    assert "--N" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "stat",
    ["p", "spt", "rank_moment", "crank_moment", "ospt", "n_sc", "overlined_largest_sum"],
)
def test_table_part_bound_on_unbounded_stat_is_usage_error(capsys, stat):
    code, out, err = run_cli(capsys, "table", "--stat", stat, "--N", "3", "--max-n", "5")
    assert code == 2
    assert out == ""
    assert "--N" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", [("--j", "3"), ("--positive-only",)])
@pytest.mark.parametrize(
    "stat",
    ["p", "spt", "ospt", "n_sc", "overlined_largest_sum", "p_restricted", "spt_restricted"],
)
def test_table_moment_flag_on_other_stat_is_usage_error(capsys, stat, flag):
    bound = ("--N", "3") if stat.endswith("_restricted") else ()
    code, out, err = run_cli(capsys, "table", "--stat", stat, *bound, *flag, "--max-n", "5")
    assert code == 2
    assert out == ""
    assert flag[0] in err and "Traceback" not in err


def test_table_moment_flags_default_to_the_first_moment_over_every_k(capsys):
    _, out, _ = run_cli(capsys, "table", "--stat", "crank_moment", "--max-n", "5")
    assert json.loads(out)["params"] == {"j": 1, "positive_only": False}


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_verify_n_max_below_one_is_usage_error(capsys, n_max):
    code, out, err = run_cli(capsys, "verify", "--id", "R10", "--N-max", n_max)
    assert code == 2
    assert out == ""
    assert "--N-max" in err and "Traceback" not in err


@pytest.mark.parametrize("size", [str(MAX_SIZE + 1), "99999999999999999999"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--order"), "--order"),
        (("verify", "--id", "R03", "--N"), "--N"),
        (("verify", "--N-max"), "--N-max"),
        (("coeffs", "--id", "R45", "--d", "1/2", "--order"), "--order"),
        (("coeffs", "--id", "R03", "--a", "1/2", "--b", "1/3", "--c", "1/5", "--N"), "--N"),
        (("positivity", "--order"), "--order"),
        (("positivity", "--N"), "--N-max"),
        (("table", "--stat", "p", "--max-n"), "--max-n"),
        (("table", "--stat", "p_restricted", "--max-n", "5", "--N"), "--N"),
    ],
)
def test_size_above_the_bound_is_usage_error(capsys, argv, flag, size):
    # rejected before anything is allocated or enumerated
    code, out, err = run_cli(capsys, *argv, size)
    assert code == 2
    assert out == ""
    assert f"{flag} must be at most {MAX_SIZE}" in err and "Traceback" not in err


@pytest.mark.parametrize("size", [str(MAX_TABLE_N + 1), str(MAX_SIZE)])
@pytest.mark.parametrize("stat", ["p", "ospt"])
def test_table_size_above_its_enumeration_bound_is_usage_error(capsys, stat, size):
    # within MAX_SIZE, but enumerating p(n) partitions up to it would not end
    code, out, err = run_cli(capsys, "table", "--stat", stat, "--max-n", size)
    assert code == 2
    assert out == ""
    assert f"--max-n must be at most {MAX_TABLE_N}" in err and "Traceback" not in err


@pytest.mark.parametrize("size", [str(MAX_ENUMERATED_ORDER + 1), str(MAX_SIZE)])
@pytest.mark.parametrize("argv", [("verify",), ("verify", "--id", "R24"), ("coeffs", "--id", "R24")])
def test_order_above_the_enumeration_bound_with_r24_is_usage_error(capsys, monkeypatch, argv, size):
    # within MAX_SIZE, but R24's sides enumerate every partition of T and would
    # not end; rejected before any side is built
    def unreachable(*args, **kwargs):
        raise AssertionError("a side was built")

    monkeypatch.setattr(qlab.cli, "run_suite", unreachable)
    monkeypatch.setattr(qlab.cli, "build_side", unreachable)
    code, out, err = run_cli(capsys, *argv, "--order", size)
    assert code == 2
    assert out == ""
    assert f"--order must be at most {MAX_ENUMERATED_ORDER} for R24" in err and "Traceback" not in err


def test_order_above_the_enumeration_bound_without_r24_runs(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "R01", "--order", str(MAX_ENUMERATED_ORDER + 1),
                           "--samples", "1")
    assert code == 0
    assert [(r["T"], r["outcome"]) for r in json.loads(out)] == [(MAX_ENUMERATED_ORDER + 1, "pass")]


@pytest.mark.parametrize("size", [str(MAX_SIZE + 1), "99999999999999999999"])
@pytest.mark.parametrize("stat", ["rank_moment", "crank_moment"])
def test_moment_order_above_the_bound_is_usage_error(capsys, stat, size):
    # a moment order this large would raise every rank or crank to it, for ever
    code, out, err = run_cli(capsys, "table", "--stat", stat, "--j", size, "--max-n", "5")
    assert code == 2
    assert out == ""
    assert f"--j must be at most {MAX_SIZE}" in err and "Traceback" not in err


@pytest.mark.parametrize("stat", ["rank_moment", "crank_moment"])
def test_table_negative_moment_order_is_usage_error(capsys, stat):
    code, out, err = run_cli(capsys, "table", "--stat", stat, "--j", "-1")
    assert code == 2
    assert out == ""
    assert "--j" in err and "Traceback" not in err


def test_coeffs_moment_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--id", "R33", "--side", "rhs", "--N", "1", "--order", "6"
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "1", "1", "2", "2", "3", "3"]


def test_coeffs_order_zero_single_constant(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--id", "R45", "--d", "1/2", "--order", "0"
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0"]


def test_coeffs_on_pole_exits_2_with_description(capsys):
    code, _, err = run_cli(
        capsys, "coeffs", "--id", "R01", "--a", "1/1", "--b", "1/3", "--order", "5"
    )
    assert code == 2
    assert "a = 1" in err


def test_coeffs_rejects_decimal_literal(capsys):
    code, _, err = run_cli(
        capsys, "coeffs", "--id", "R45", "--d", "0.5", "--order", "5"
    )
    assert code == 2
    assert "exact rational" in err


def test_coeffs_missing_parameter_named(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--id", "R01", "--a", "1/2", "--order", "5")
    assert code == 2
    assert "b" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--id", "R99"), "unknown identity id 'R99'"),
        (("--id", "R33", "--N", "2", "--side", "mid"), "R33 has no side 'mid'"),
    ],
)
def test_coeffs_unknown_id_or_side_message_is_unquoted(capsys, argv, message):
    code, out, err = run_cli(capsys, "coeffs", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"qlab: error: {message}")


@pytest.mark.parametrize("identity_id, extra", [("R24", ()), ("R01", ("--a", "1/2", "--b", "1/3"))])
def test_coeffs_cutoff_on_infinite_identity_is_usage_error(capsys, identity_id, extra):
    code, out, err = run_cli(
        capsys, "coeffs", "--id", identity_id, "--side", "rhs", "--N", "2", "--order", "4", *extra
    )
    assert code == 2 and out == ""
    assert err.startswith(f"qlab: error: {identity_id} is an infinite identity")
    assert "--N" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--id", "R01", "--a", "1/2", "--b", "1/3", "--c", "5"), "R01 takes no --c (it takes a, b)"),
        (("--id", "R24", "--a", "1"), "R24 takes no --a (it takes no parameters)"),
    ],
)
def test_coeffs_parameter_the_identity_does_not_take_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "coeffs", *argv, "--order", "4")
    assert code == 2 and out == ""
    assert err == f"qlab: error: {message}\n"


def test_coeffs_exit_codes_at_boundary_parameters(capsys):
    # every side of every identity with each parameter in {0, 1, -1, 1/2}:
    # an admissible environment prints coefficients, a pole or an excluded
    # value is a usage error, and nothing escapes as an exception.  Past
    # two parameters a seeded draw of 16 points keeps the run near 2 s.
    values = ("0", "1", "-1", "1/2")
    rng = random.Random(0)
    for identity in REGISTRY.values():
        cutoff = ("--N", "2") if identity.kind == FINITE else ()
        points = list(itertools.product(values, repeat=len(identity.params)))
        if len(points) > 16:
            points = rng.sample(points, 16)
        for point in points:
            env = [f"--{name}={value}" for name, value in zip(identity.params, point)]
            for side in identity.side_names:
                argv = ("coeffs", "--id", identity.id, "--side", side, "--order", "4")
                code, _, err = run_cli(capsys, *argv, *cutoff, *env)
                assert code in (0, 2), (argv, cutoff, env, err)


def test_coeffs_outside_the_domain_notes_it_on_stderr_only(capsys):
    code, out, err = run_cli(capsys, "coeffs", "--id", "R19", "--a", "5/2", "--order", "4")
    assert code == 0 and len(json.loads(out)["coeffs"]) == 5
    assert err.startswith("qlab: note: a=5/2 is outside R19's domain") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "coeffs", "--id", "R01", "--a", "1/2", "--b", "1/3", "--order", "4")
    assert code == 0 and out and err == ""


def test_coeffs_negative_fraction_as_separate_token(capsys):
    base = ("coeffs", "--id", "R01", "--b", "1/2", "--order", "6")
    attached = run_cli(capsys, *base, "--a=-7/3")
    separate = run_cli(capsys, *base, "--a", "-7/3")
    assert attached[0] == 0
    assert separate == attached
    assert json.loads(separate[1])["env"]["a"] == "-7/3"


def test_positivity_pattern_and_strict(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "positivity", "--N", "1", "--order", "10", "--format", "tsv"
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [r[2] for r in rows] == ["1", "0", "1", "0", "1", "0", "1", "0", "1", "0"]
    code, _, err = run_cli(capsys, "positivity", "--N", "0")
    assert code == 2


def test_the_size_bounds_and_the_positivity_default_are_pinned(capsys):
    # README's bounds as literals, not the constants read back, and
    # positivity's default order, 50: a bound or a default moved in cli.py
    # alone must fail here
    assert (MAX_TABLE_N, MAX_SIZE, MAX_ENUMERATED_ORDER) == (60, 1000, 80)
    code, out, _ = run_cli(capsys, "positivity", "--N", "1", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == list(range(1, 51))


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "list", "--out", str(target)
    )
    assert code == 0 and out == ""
    listing = json.loads(target.read_text())
    assert len(listing) == 45
    assert listing[0]["id"] == "R01"


def test_out_to_unopenable_path_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "list", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("qlab: error: cannot write --out") and str(target) in err


def test_list_tsv(capsys):
    code, out, _ = run_cli(capsys, "list", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 46  # header + 45 entries


def test_verify_more_samples_than_distinct_environments_is_usage_error(capsys):
    # R11 has one parameter a = p/q with |p|, q <= 9 and a != 1: 110 distinct values
    code, out, err = run_cli(
        capsys, "verify", "--id", "R11", "--samples", "111", "--N", "1", "--order", "1"
    )
    assert code == 2 and out == ""
    assert err == "qlab: error: could not draw 111 distinct environments for R11\n"


def test_verify_tsv_rows_follow_the_json_reports(capsys):
    args = ("verify", "--id", "R01", "--samples", "2", "--order", "8", "--seed", "5")
    _, json_out, _ = run_cli(capsys, *args)
    code, tsv_out, _ = run_cli(capsys, *args, "--format", "tsv")
    assert code == 0
    reports = json.loads(json_out)
    header, *rows = [line.split("\t") for line in tsv_out.splitlines()]
    assert header == list(reports[0])
    assert len(rows) == len(reports) == 2
    for row, report in zip(rows, reports):
        env = f"a={report['env']['a']};b={report['env']['b']}"
        expected = {**report, "env": env, "elapsed_ms": row[-1]}
        assert row == [str(v) for v in expected.values()]


@pytest.mark.parametrize("argv", [("table", "--stat", "p"), ("list",)])
def test_order_is_not_an_option_of_table_or_list(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--order", "5"])
    assert err.value.code == 2
    assert "unrecognized arguments: --order 5" in capsys.readouterr().err


# -- the exit-code contract, over command lines drawn from small grammars ------
#
# Sizes in bounds stay at T <= 8 and N <= 4, so that no example runs long; the
# values out of bounds are negative, zero, above MAX_SIZE or malformed.

MALFORMED = ["abc", "1e3", "1/2", "", "-", "0x10", "99999999999999999999", str(MAX_SIZE + 1)]
RATIONALS = ["1/2", "-7/3", "2/5", "3", "0", "1", "-1", "2", "3/-4", "1/0", "abc", "1e3", "0.5", ""]


def sizes(top):
    """Mostly in bounds, 1..top; else zero, negative or malformed."""
    good = st.integers(1, top).map(str)
    return st.one_of(good, good, good, good, good, st.sampled_from(["0", "-1", "-2", *MALFORMED]))


def command_line(subcommand, always, optional):
    """subcommand, each flag of always with a drawn value, and a drawn subset
    of optional; a value of None marks a flag that takes none."""
    def flags(pairs):
        return [token for flag, value in pairs for token in ((flag,) if value is None else (flag, value))]

    drawn = st.tuples(
        st.tuples(*(st.tuples(st.just(f), v) for f, v in always.items())),
        st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4).flatmap(
            lambda names: st.tuples(*(st.tuples(st.just(f), optional[f]) for f in names))),
    )
    return drawn.map(lambda parts: [subcommand, *flags(parts[0]), *flags(parts[1])])


FORMATS = {"--format": st.sampled_from(["json", "tsv", "json", "tsv", "xml"]),
           "--out": st.just("/nonexistent/dir/out")}
RATIONAL = st.one_of(*[st.sampled_from(RATIONALS[:4])] * 4, st.sampled_from(RATIONALS))


def coeffs_line(identity_id):
    """coeffs for one identity, with its parameters and, if finite, --N."""
    identity = REGISTRY.get(identity_id)
    always = {"--id": st.just(identity_id), "--order": sizes(8)}
    always.update({f"--{p}": RATIONAL for p in identity.params} if identity else {})
    optional = {"--side": st.sampled_from(["lhs", "rhs", "rhs_nested", "mid"]), "--a": RATIONAL, **FORMATS}
    (always if identity and identity.kind == FINITE else optional)["--N"] = sizes(4)
    return command_line("coeffs", always, optional)

ARGV = st.one_of(
    command_line("verify", {"--order": sizes(8), "--N-max": sizes(4)}, {
        "--id": st.sampled_from(sorted(REGISTRY)[::5] + ["NOSUCH", ""]), "--seed": st.integers(-3, 3).map(str),
        "--samples": st.one_of(st.integers(-1, 2).map(str), st.sampled_from(MALFORMED[:3])),
        "--N": sizes(4), **FORMATS}),
    st.sampled_from(sorted(REGISTRY) + ["NOSUCH"]).flatmap(coeffs_line),
    command_line("table", {"--max-n": sizes(8), "--stat": st.sampled_from([
        "p", "p_restricted", "spt", "spt_restricted", "rank_moment", "crank_moment", "ospt", "n_sc",
        "overlined_largest_sum", "nope"])}, {"--N": sizes(4), "--j": sizes(3), "--positive-only": st.none(),
                                              **FORMATS}),
    command_line("positivity", {"--order": sizes(8), "--N": sizes(4)}, {"--strict": st.none(), **FORMATS}),
    command_line("list", {}, FORMATS),
    st.lists(st.sampled_from(["frob", "--order", "8", "-h2", "--"]), max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(ARGV)
def test_every_command_line_exits_0_1_or_2_without_a_traceback(argv):
    # main raising anything but argparse's SystemExit would be a traceback
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:  # a failed verification, or a negative coefficient under --strict
        assert argv[0] == "verify" or argv[0] == "positivity" and "--strict" in argv, argv
