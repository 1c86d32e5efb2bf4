import argparse
import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline, primes
from distmap import cli, curve
from distmap.catalog import CurveCatalogEntry, builtin_catalog, get_entry
from distmap.cli import build_parser, main, parse_point, point_str


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_point_round_trip():
    assert parse_point("224,31") == (224, 31)
    assert parse_point("O") is None
    assert point_str((224, 31)) == "224,31"
    assert point_str(None) == "O"


def test_catalog_entries_validate():
    cat = builtin_catalog()
    assert {"ex2-f701", "ex1-f5", "ex1-f13", "ex1-f17", "ex1-f29",
            "ex4-rational", "ex4-13"} <= set(cat)
    ex2 = get_entry("ex2-f701")
    assert (ex2.order.d_K, ex2.order.f_pi, ex2.order.c) == (-7, 20, 1)


def test_tampered_catalog_rejected():
    # singular curve data
    with pytest.raises(ValueError, match="singular"):
        CurveCatalogEntry("x", 13, a4=0, a6=0)
    # stated conductor incompatible with the counted trace (f_pi = 20)
    with pytest.raises(ValueError, match="c = 7 must divide f_pi = 20"):
        CurveCatalogEntry("x", 701, a4=-35, a6=98, conductor=7)


def test_curve_info(capsys):
    code, out = run(capsys, "curve-info", "--name", "ex2-f701")
    assert code == 0
    assert "t=2" in out and "d_K=-7" in out and "f_pi=20" in out


def test_curve_info_large_prime_discriminant(capsys):
    # 4p - t^2 is a prime near 2^54: decomposing it stops trial division
    # at its cube root instead of its square root
    start = time.perf_counter()
    code, out = run(capsys, "curve-info", "--p", "4503599627370517",
                    "--a4", "9", "--a6", "1")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out == (
        "p=4503599627370517\na4=9\na6=1\norder=4503599634386915\n"
        "t=-7016397\nd_K=-17965168682620459\nf_pi=1\nconductor=1\n"
        "ordinary=true\n"
    )


def test_curve_info_explicit_flags_match(capsys):
    _, by_name = run(capsys, "curve-info", "--name", "ex2-f701")
    _, by_flags = run(capsys, "curve-info", "--p", "701", "--a4", "-35",
                      "--a6", "98")
    assert by_name == by_flags


def test_curve_info_bad_reduction(capsys):
    code, _ = run(capsys, "curve-info", "--p", "11", "--name", "ex4-rational")
    assert code == 2


def test_pairing_command(capsys):
    code, out = run(capsys, "pairing", "--name", "ex2-f701", "--ell", "5",
                    "--A", "224,31", "--B", "173,194")
    assert code == 0
    assert "e=464" in out


def test_endo_apply(capsys):
    code, out = run(capsys, "endo-apply", "--name", "ex2-f701",
                    "--phi", "alpha_701", "--A", "224,31")
    assert code == 0
    assert "image=173,194" in out


def test_endo_matrix(capsys):
    code, out = run(capsys, "endo-matrix", "--name", "ex2-f701", "--ell", "5",
                    "--phi", "alpha_701", "--A", "224,31", "--B", "573,450")
    assert code == 0
    assert "matrix=0,4;2,1" in out
    assert "trace=1" in out and "det=2" in out


def test_ddh_true(capsys):
    code, out = run(capsys, "ddh", "--name", "ex2-f701", "--ell", "5",
                    "--phi", "alpha_701", "--triple", "2,3,6")
    assert code == 0
    assert "ddh=true" in out


def test_ddh_false(capsys):
    code, out = run(capsys, "ddh", "--name", "ex2-f701", "--ell", "5",
                    "--phi", "alpha_701", "--triple", "2,3,2")
    assert code == 1
    assert "ddh=false" in out


def test_classify_no_distortion_exit(capsys):
    code, out = run(capsys, "classify", "--name", "ex4-13", "--ell", "2",
                    "--conductor", "2")
    assert code == 1
    assert "case=NoDistortion" in out


def test_classify_inert(capsys):
    code, out = run(capsys, "classify", "--name", "ex2-f701", "--ell", "5")
    assert code == 0
    assert "case=Inert" in out


def test_classify_warns_when_torsion_cannot_be_rational(capsys):
    # 7 ramifies in Q(sqrt(-7)), but 49 does not divide #E = 700, and
    # 7 does not divide [O : Z[pi]] = 20
    code, out = run(capsys, "classify", "--name", "ex2-f701", "--ell", "7")
    assert code == 0
    assert out == (
        "ell=7\ncase=Ramified\npredicted_distorted=7\n"
        "note=warning: 7 does not divide [O : Z[pi]] = 20; "
        "E[ell] cannot be fully rational for this curve\n"
    )


def test_census_command(capsys):
    code, out = run(capsys, "census", "--name", "ex2-f701", "--ell", "2",
                    "--phi", "alpha_701", "--A", "319,0", "--B", "389,0")
    assert code == 0
    assert "distorted=1" in out and "case=Split" in out


def test_invalid_input_exit_2(capsys):
    code, _ = run(capsys, "curve-info", "--name", "nonexistent")
    assert code == 2
    code, _ = run(capsys, "curve-info", "--p", "701")
    assert code == 2


def _one_error_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error={message}\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--name", "ex2-f701", "--ell", "0"],
    ["classify", "--name", "ex2-f701", "--ell", "1"],
    ["classify", "--name", "ex2-f701", "--ell", "4"],
    ["pairing", "--name", "ex2-f701", "--ell", "0",
     "--A", "224,31", "--B", "173,194"],
])
def test_ell_not_prime_exit_2(capsys, argv):
    ell = argv[argv.index("--ell") + 1]
    _one_error_line(capsys, argv, f"ell must be a prime <= 997, got {ell}")


@pytest.mark.parametrize("command", [
    ["endo-matrix", "--phi", "alpha_701"],
    ["census", "--phi", "alpha_701"],
    ["ddh", "--phi", "alpha_701", "--triple", "1,2,2"],
])
@pytest.mark.parametrize("flag", [["--A", "224,31"], ["--B", "573,450"]])
def test_lone_basis_flag_exit_2(capsys, command, flag):
    argv = command + ["--name", "ex2-f701", "--ell", "5"] + flag
    _one_error_line(capsys, argv, "give both --A and --B, or neither")


@pytest.mark.parametrize("flags", [
    ["--a4", "1", "--a6", "2"], ["--a4", "1"], ["--b", "2"],
    ["--p", "701", "--a4", "-35", "--a6", "98"],
])
def test_name_with_coefficients_exit_2(capsys, flags):
    # the catalog entry fixes the coefficients: --a4/--a6 beside --name
    # would otherwise be ignored without a word
    argv = ["curve-info", "--name", "ex2-f701"] + flags
    _one_error_line(capsys, argv, "give --name or --a4/--a6, not both")


@pytest.mark.parametrize("argv", [
    ["curve-info", "--name", "ex2-f701", "--p", "701"],
    ["curve-info", "--name", "ex2-f701", "--conductor", "1"],
])
def test_name_with_prime_or_conductor_allowed(capsys, argv):
    assert main(argv) == 0
    assert "p=701\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["endo-matrix", "--name", "ex2-f701", "--ell", "5", "--phi", "alpha_701",
      "--A", "O", "--B", "573,450"],
     "O does not have exact order 5"),
    (["endo-matrix", "--name", "ex2-f701", "--ell", "5", "--phi", "alpha_701",
      "--A", "319,0", "--B", "573,450"],
     "(319, 0) does not have exact order 5"),
    (["curve-info", "--name", "ex2-f701", "--p", "13"],
     "ex2-f701 has no rational model to re-reduce"),
    (["pairing", "--name", "ex2-f701", "--ell", "5", "--A", "1,2,3",
      "--B", "224,31"],
     "point must be 'x,y' or 'O', got '1,2,3'"),
    (["pairing", "--name", "ex2-f701", "--ell", "5", "--A", "1,x",
      "--B", "224,31"],
     "point must be 'x,y' or 'O', got '1,x'"),
    (["endo-matrix", "--name", "ex2-f701", "--ell", "5", "--phi", "alpha_701",
      "--A", "224,31", "--B", "1,x"],
     "point must be 'x,y' or 'O', got '1,x'"),
    (["ddh", "--name", "ex2-f701", "--ell", "5", "--phi", "alpha_701",
      "--triple", "1,2"],
     "triple must be 'a,b,c', got '1,2'"),
    (["ddh", "--name", "ex2-f701", "--ell", "5", "--phi", "alpha_701",
      "--triple", "a,b,c"],
     "triple must be 'a,b,c', got 'a,b,c'"),
    (["curve-info", "--name", "nonexistent"],
     "unknown catalog entry 'nonexistent'; have ['ex1-f13', 'ex1-f17', "
     "'ex1-f29', 'ex1-f5', 'ex2-f701', 'ex4-13', 'ex4-rational']"),
    # ell = p, which census rejects at its TorsionContext
    (["classify", "--p", "7", "--a4", "1", "--a6", "1", "--ell", "7"],
     "ell must differ from the field characteristic"),
    (["classify", "--name", "ex2-f701", "--ell", "701"],
     "ell must differ from the field characteristic"),
    # y^2 = x^3 + x + 5 over F_11 is anomalous (#E = 11): ell = p, where
    # the Weil pairing is not defined
    (["pairing", "--p", "11", "--a4", "1", "--a6", "5", "--ell", "11",
      "--A", "0,4", "--B", "2,2"],
     "ell must differ from the field characteristic"),
])
def test_rejected_input_exit_2(capsys, argv, message):
    _one_error_line(capsys, argv, message)


CURVE_OPTIONS = [
    (("--name",), "name", None, None, False, None, "catalog entry name"),
    (("--p",), "p", int, None, False, None, "prime modulus"),
    (("--a4",), "a4", int, None, False, None, None),
    (("--a6", "--b"), "a6", int, None, False, None, None),
]
CONDUCTOR = (("--conductor",), "conductor", int, None, False, None,
             "[O_K : O], overrides catalog")
ELL = (("--ell",), "ell", int, None, True, None, None)
PHI = (("--phi",), "phi", None, None, True, None, None)
BASIS = [
    (("--A",), "A", None, None, False, None, "basis point P (default: sampled)"),
    (("--B",), "B", None, None, False, None, "basis point Q (default: sampled)"),
    (("--seed",), "seed", int, 0, False, None, None),
]
PARSER_OPTIONS = {
    "curve-info": CURVE_OPTIONS + [CONDUCTOR],
    "pairing": CURVE_OPTIONS + [
        ELL,
        (("--A",), "A", None, None, True, None, None),
        (("--B",), "B", None, None, True, None, None),
    ],
    "endo-apply": CURVE_OPTIONS + [
        PHI, (("--A",), "A", None, None, True, None, None),
    ],
    "endo-matrix": CURVE_OPTIONS + [ELL, PHI] + BASIS,
    "classify": CURVE_OPTIONS + [CONDUCTOR, ELL],
    "census": CURVE_OPTIONS + [ELL, PHI] + BASIS,
    "ddh": CURVE_OPTIONS + [
        ELL, PHI,
        (("--triple",), "triple", None, None, True, None, "scalars a,b,c"),
    ] + BASIS,
    "paper-examples": [],
    "catalog": [((), "action", None, None, True, ("export",), None)],
}


def test_parser_options_pinned():
    # every subcommand's options, in order: option strings, dest, type,
    # default, required, choices and help
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {
        name: [(tuple(a.option_strings), a.dest, a.type, a.default, a.required,
                tuple(a.choices) if a.choices else None, a.help)
               for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        for name, sp in sub.choices.items()
    }
    assert found == PARSER_OPTIONS
    assert list(found) == list(PARSER_OPTIONS)


@pytest.mark.parametrize("command", list(PARSER_OPTIONS))
def test_subcommand_help_exit_0(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: distmap {command} ")


def test_missing_required_flag_exit_2(capsys):
    code = main(["endo-matrix", "--name", "ex2-f701", "--phi", "alpha_701"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "the following arguments are required: --ell" in captured.err


def test_torsion_not_rational_exit_2(capsys):
    # #E = 92 passes the ell^2 | #E and congruence checks, but x = 88 is
    # the only root of x^3 + 2x + 1: E(F_101)[2^oo] = Z/4, and a draw of
    # order 4 shows that E[2] is not rational
    _one_error_line(
        capsys,
        ["census", "--p", "101", "--a4", "2", "--a6", "1",
         "--ell", "2", "--phi", "scalar(1)"],
        "E[2] is not rational: a point has order 2^2",
    )


@pytest.mark.parametrize("seed", range(4))
def test_census_ell_part_beyond_2d(capsys, seed):
    # y^2 = x^3 + x + 2 over F_547: #E = 512 = 2^9 with the 2-torsion points
    # x = 88, 460, 546 rational, so the 2-part is Z/2^i x Z/2^j, i + j = 9;
    # a draw walked down to order 2 mostly lies in <P>, and is reduced
    code, out = run(capsys, "census", "--p", "547", "--a4", "1", "--a6", "2",
                    "--ell", "2", "--phi", "scalar(1)", "--seed", str(seed))
    assert code == 1  # scalar(1) distorts no subgroup
    assert out.count(":eigen\n") == 3


def test_counting_exhausted_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(curve, "_random_point", lambda C, rng: None)
    code = main(["curve-info", "--p", "251", "--a4", "1", "--a6", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error=point counting: 128 points left 16 candidates for #E\n"
    )


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # stdout's reader is gone before the first write, as in `distmap census
    # ... | true`: the write fails (at the print, or at the final flush when
    # stdout is buffered), and the CLI exits 128 + SIGPIPE with nothing on
    # stderr
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "distmap.cli", "census", "--p", "1770504529",
             "--a4", "1255580575", "--a6", "0", "--ell", "97",
             "--phi", "sqrt_minus_one"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_catalog_export_command(capsys):
    code, out = run(capsys, "catalog", "export")
    assert code == 0
    assert "[ex2-f701]" in out


def test_output_determinism(capsys):
    args = ("ddh", "--name", "ex2-f701", "--ell", "5", "--phi", "alpha_701",
            "--triple", "2,3,6", "--seed", "5")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_paper_examples_deterministic(capsys):
    code1, out1 = run(capsys, "paper-examples")
    code2, out2 = run(capsys, "paper-examples")
    assert out1 == out2 and code1 == code2
    assert "PASS" in out1


PAPER_EXAMPLES_STDOUT = """\
PASS  ex2 point count #E=700 t=2
PASS  ex2 alpha(224,31)=(173,194)
PASS  ex2 alpha(573,450)=(463,495)
PASS  ex2 e_5(P,alpha(P))=464
FAIL  ex2 e_5(Q,alpha(Q))=89
PASS  ex2 matrix (0 -1 / 2 1) mod 5
PASS  ex2 trace=1 det=2 charpoly irreducible mod 5
PASS  ex2 classify ell=5 Inert, census 6/6
PASS  ex3 alpha(319,0)=O alpha(389,0)=(389,0)
PASS  ex3 matrix diag(0,1), eigenvalues 0 and 1
PASS  ex3 classify ell=2 Split, census 1/3
PASS  ex1 p=5 [i] fixes <(0,0)>, Ramified, census 2/3
PASS  ex1 p=13 [i] fixes <(0,0)>, Ramified, census 2/3
PASS  ex1 p=17 [i] fixes <(0,0)>, Ramified, census 2/3
PASS  ex1 p=29 [i] fixes <(0,0)>, Ramified, census 2/3
PASS  ex4 reduction mod 13 ok, NoDistortion, mod 11 bad
PASS  ddh exhaustive 125 triples on ex2
total=17 failed=1
"""


def test_paper_examples_reason_on_stderr(capsys):
    # the published 89 is inconsistent with 464 (see test_pairing), so that
    # row is the one red row; its reason goes to stderr, stdout is unchanged
    code = main(["paper-examples"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == PAPER_EXAMPLES_STDOUT
    assert captured.err.splitlines() == [
        "reason[ex2 e_5(Q,alpha(Q))=89]=check returned false"
    ]


def test_paper_examples_reason_names_exception(capsys, monkeypatch):
    def broken():
        raise ValueError("boom")

    monkeypatch.setattr(
        "distmap.cli._paper_example_rows",
        lambda: [("ok row", lambda: True), ("broken row", broken)],
    )
    code = main(["paper-examples"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "PASS  ok row\nFAIL  broken row\ntotal=2 failed=1\n"
    assert captured.err == "reason[broken row]=ValueError: boom\n"


def test_paper_examples_rows_own_their_failures(capsys, monkeypatch):
    # the catalog entry, endomorphisms, bases and matrices are built inside
    # the rows that use them: a broken builder fails those rows alone, each
    # with its reason, and every other row still runs
    def boom(*args):
        raise RuntimeError("boom")

    lines = PAPER_EXAMPLES_STDOUT.splitlines()[:-1]
    matrix_rows = {"ex2 matrix (0 -1 / 2 1) mod 5",
                   "ex2 trace=1 det=2 charpoly irreducible mod 5",
                   "ex2 classify ell=5 Inert, census 6/6",
                   "ex3 matrix diag(0,1), eigenvalues 0 and 1",
                   "ex3 classify ell=2 Split, census 1/3",
                   *(f"ex1 p={p} [i] fixes <(0,0)>, Ramified, census 2/3"
                     for p in (5, 13, 17, 29))}
    # every row but the point count and ex4 needs alpha_701 or [i]
    endo_rows = {line[6:] for line in lines} - {
        "ex2 point count #E=700 t=2",
        "ex4 reduction mod 13 ok, NoDistortion, mod 11 bad"}
    for name, broken in (("endo_matrix", matrix_rows),
                         ("make_catalog_endo", endo_rows)):
        with monkeypatch.context() as m:
            m.setattr(cli, name, boom)
            code = main(["paper-examples"])
        captured = capsys.readouterr()
        want, reasons = [], []
        for line in lines:
            label = line[6:]
            if label in broken:
                line = f"FAIL  {label}"
                reasons.append(f"reason[{label}]=RuntimeError: boom")
            elif line.startswith("FAIL"):  # the known red row
                reasons.append(f"reason[{label}]=check returned false")
            want.append(line)
        assert code == 1, name
        assert captured.out.splitlines() == [*want, f"total=17 failed={len(reasons)}"]
        assert captured.err.splitlines() == reasons


# each catalog curve, by name and by coefficients, with its ell, its first
# map (scalar(2) where it has none) and a true and a false DDH triple; or
# a small curve by coefficients, with an ell
_SETTINGS = st.sampled_from([
    {**by, "ell": str(e.default_ell), "phi": (*e.endo_labels, "scalar(2)")[0],
     "triple": triple, "action": "export"}
    for e in builtin_catalog().values()
    for by in ({"name": e.name},
               {"p": str(e.p), "a4": str(e.curve.a4), "a6": str(e.curve.a6)})
    for triple in ("2,3,6", "2,3,5")
]) | st.fixed_dictionaries({
    "p": st.sampled_from(primes(3, 60)).map(str), "a4": st.integers(0, 60).map(str),
    "a6": st.integers(0, 60).map(str), "ell": st.sampled_from(["2", "3", "5"])})
# any flag outside the setting takes one of these: of the right kind for
# some flags, and for others of the wrong kind or out of range
_TOKENS = st.integers(-2, 120).map(str) | st.sampled_from([
    "4", "701", "1009", "O", "x", "224,31", "573,450", "319,0", "1,1", "1,2",
    "alpha_701", "sqrt_minus_one", "frobenius", "ex2-f701", "nonexistent",
])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_contract(data):
    # argv from the flags that cli._COMMANDS declares: those of a drawn
    # setting, the required ones and the positionals nine times in ten, the
    # others two times in ten.  Exit 0, 1 or 2, no exception and no hang;
    # an exit 2 says why on stderr
    command, _, _, flags = data.draw(st.sampled_from(cli._COMMANDS))
    setting, argv = data.draw(_SETTINGS), [command]
    for *names, kwargs in flags:
        dest = kwargs.get("dest", names[0].lstrip("-"))
        positional = not names[0].startswith("-")
        wanted = positional or kwargs.get("required", False) or dest in setting
        roll = data.draw(st.integers(0, 9))  # shrinks to 0: wanted flags given
        if (roll < 9) if wanted else (roll > 7):
            value = setting.get(dest) or data.draw(_TOKENS)
            argv += [value] if positional else [data.draw(st.sampled_from(names)), value]
    err = io.StringIO()
    with deadline(10), redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert code != 2 or err.getvalue(), argv
