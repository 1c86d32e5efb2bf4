import argparse
import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A31, A97, P31, P97, deadline, primes
from distmap import cli, curve
from distmap.catalog import CurveCatalogEntry, builtin_catalog, get_entry
from distmap.cli import build_parser, main, parse_point, point_str
from distmap.field import PrimeField

README = Path(__file__).resolve().parents[1] / "README.md"
# the environment of `python -m distmap.cli`: the package the rows run in
# process on its path
ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


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


def info(p, a4, a6, order, t, d_K, f_pi, argv=None):
    """The curve-info row of y^2 = x^3 + a4*x + a6 over F_p, by --p/--a4/--a6
    unless argv names the curve otherwise."""
    fields = {"p": p, "a4": a4 % p, "a6": a6 % p, "order": order, "t": t,
              "d_K": d_K, "f_pi": f_pi, "conductor": 1, "ordinary": "true"}
    return (argv or f"curve-info --p {p} --a4 {a4} --a6 {a6}", 0,
            "".join(f"{k}={v}\n" for k, v in fields.items()), None)


def ddh(flags, triple, P, true):
    """The row of a DDH decision on <P>: exit 0 and ddh=true, or 1 and false."""
    return (f"ddh {flags} --triple {triple}", 0 if true else 1,
            f"P={P}\ntriple={triple}\nddh={'true' if true else 'false'}\n", None)


def error(argv, message):
    """The row of an input the CLI rejects with one error= line."""
    return argv, 2, "", f"error={message}"


def usage(argv):
    """The row of a flag argparse rejects, with its usage message."""
    return argv, 2, "", None


EX2 = "--name ex2-f701 --ell 5 --phi alpha_701"
EX2_INFO = (701, -35, 98, 700, 2, -7, 20)
C31 = f"--p {P31} --a4 {A31} --a6 0 --ell 31"
C97 = f"--p {P97} --a4 {A97} --a6 0 --ell 97"
P42 = 4398046511093  # the largest prime below 2^42

# (argv, exit code, stdout, or "sha256:" and its hex digest, and the one
# stderr line or None); every row runs in process through main.  The inputs
# rejected with one error= line the tests below check, by the same rule
CLI_ROWS = [
    # the README's commands and its first error= example, in its order
    info(*EX2_INFO, argv="curve-info --name ex2-f701"),
    info(*EX2_INFO),
    ("pairing --name ex2-f701 --ell 5 --A 224,31 --B 173,194", 0, "e=464\n", None),
    ("endo-apply --name ex2-f701 --phi alpha_701 --A 224,31", 0,
     "phi=alpha_701\nimage=173,194\n", None),
    (f"endo-matrix {EX2} --A 224,31 --B 573,450", 0,
     "P=224,31\nQ=573,450\nmatrix=0,4;2,1\ntrace=1\ndet=2\ncharpoly=X^2+4X+2\n"
     "roots=none\n", None),
    ("classify --name ex4-13 --ell 2 --conductor 2", 1,
     "ell=2\ncase=NoDistortion\npredicted_distorted=0\n", None),
    ("census --name ex2-f701 --ell 2 --phi alpha_701", 0,
     "P=389,0\nQ=319,0\nsubgroup=319,0:eigen\nsubgroup=389,0:eigen\n"
     "subgroup=694,0:distorted\ndistorted=1\ncase=Split\n", None),
    ddh(EX2, "2,3,6", "469,620", True),
    ("paper-examples", 1, PAPER_EXAMPLES_STDOUT,
     "reason[ex2 e_5(Q,alpha(Q))=89]=check returned false"),
    ("catalog export", 0,
     "sha256:4e8b87118b92db7effff7520184ff6fdd90140eace27b5112c6c31dc07dd52bc", None),
    # #E = 92 passes the ell^2 | #E and congruence checks, but x = 88 is the
    # only root of x^3 + 2x + 1: a draw of order 4 shows E[2] is not rational
    error("census --p 101 --a4 2 --a6 1 --ell 2 --phi 'scalar(1)'",
          "E[2] is not rational: a point has order 2^2"),
    # --name beside the catalog's own prime or a conductor is allowed
    info(*EX2_INFO, argv="curve-info --name ex2-f701 --p 701"),
    info(*EX2_INFO, argv="curve-info --name ex2-f701 --conductor 1"),
    ddh(EX2, "2,3,2", "469,620", False),
    ddh(EX2, "2,3,5", "469,620", False),
    ("classify --name ex2-f701 --ell 5", 0,
     "ell=5\ncase=Inert\npredicted_distorted=6\nnote=5 divides [O : Z[pi]] = 20; "
     "classification proceeds (only ell | [O_K : O] blocks distortion maps)\n",
     None),
    # 7 ramifies in Q(sqrt(-7)), but 49 does not divide #E = 700, and 7 does
    # not divide [O : Z[pi]] = 20
    ("classify --name ex2-f701 --ell 7", 0,
     "ell=7\ncase=Ramified\npredicted_distorted=7\nnote=warning: 7 does not "
     "divide [O : Z[pi]] = 20; E[ell] cannot be fully rational for this curve\n",
     None),
    ("census --name ex2-f701 --ell 2 --phi alpha_701 --A 319,0 --B 389,0", 0,
     "P=319,0\nQ=389,0\nsubgroup=389,0:eigen\nsubgroup=319,0:eigen\n"
     "subgroup=694,0:distorted\ndistorted=1\ncase=Split\n", None),
    # y^2 = x^3 + x + 2 over F_547: #E = 2^9 with E[2] rational, so a draw
    # walked down to order 2 mostly lies in <P>, and is reduced; scalar(1)
    # distorts no subgroup
    *((f"census --p 547 --a4 1 --a6 2 --ell 2 --phi 'scalar(1)' --seed {seed}", 1,
       f"P=546,0\nQ={x},0\nsubgroup={x},0:eigen\nsubgroup=546,0:eigen\n"
       f"subgroup={y},0:eigen\ndistorted=0\ncase=NoDistortion\n", None)
      for seed, x, y in ((0, 88, 460), (1, 460, 88), (2, 88, 460), (3, 460, 88))),
    # ell = 2: <P> = {O, P}, so each progression of the rule is P or phi(P)
    ddh("--name ex1-f5 --ell 2 --phi sqrt_minus_one", "1,1,1", "3,0", True),
    ddh("--name ex1-f5 --ell 2 --phi sqrt_minus_one", "1,1,0", "3,0", False),
    ddh(f"{C31} --phi sqrt_minus_one", "2,3,6", "302694661,1375251924", True),
    ddh(f"{C31} --phi sqrt_minus_one", "2,3,5", "302694661,1375251924", False),
    error(f"ddh {C31} --phi 'scalar(3)' --triple 2,3,6",
          "scalar(3) does not distort <P>: phi(P) lies in <P>, cannot decide DDH"),
    # ell = 97: the seed-0 P lies on an eigenline of [i]; with P and Q
    # swapped by --A/--B, [i] decides
    error(f"ddh {C97} --phi sqrt_minus_one --triple 2,3,6",
          "sqrt_minus_one does not distort <P>: phi(P) lies in <P>, cannot decide DDH"),
    ddh(f"{C97} --phi sqrt_minus_one --A 55041655,1764971026 "
        "--B 1478373507,766543494", "2,3,6", "55041655,1764971026", True),
    ddh(f"{C97} --phi sqrt_minus_one --A 55041655,1764971026 "
        "--B 1478373507,766543494", "2,3,5", "55041655,1764971026", False),
    # the 97 generators P + k*Q of the listing are one progression, built in
    # layers from 40 points on
    (f"census {C97} --phi sqrt_minus_one", 0,
     "sha256:e7d9e556877adc016f828d0409c6f47d7c4973fb96058d2b99f9ed8c83d328c6", None),
    # the pairing log places phi(P) and phi(Q)
    (f"endo-matrix {C97} --phi sqrt_minus_one", 0,
     "P=1478373507,766543494\nQ=55041655,1764971026\nmatrix=22,78;0,75\n"
     "trace=0\ndet=1\ncharpoly=X^2+0X+1\nroots=22,75\n", None),
    # v_ell(#E) = 2: every draw of the basis search is checked by its Miller
    # walk, which the basis keeps
    (f"endo-matrix {C31} --phi sqrt_minus_one", 0,
     "P=302694661,1375251924\nQ=711876631,471181071\nmatrix=12,22;23,19\n"
     "trace=0\ndet=1\ncharpoly=X^2+0X+1\nroots=none\n", None),
    # small p, where BSGS on the progression of #E mod 2 or 4 adds one point
    # at a time
    info(65521, 3, 7, 65355, 167, -234195, 1),
    info(578353, 3, 7, 577859, 495, -2068387, 1),
    # p - 1 = q * 2^23 and q * 2^30, one prime on each side of
    # THREE_PART_MIN: every BSGS square root searches the order of a^q deep
    info(998244353, 3, 7, 998197890, 46464, -37430084, 7),
    info(3221225473, 3, 7, 3221130259, 95215, -424333963, 3),
    # the top of the benchmark's band, with the batched (layered) steps
    info(P42, 123456789, 987654321, 4398044609004, 1902090, -873389979767, 4),
    # one curve per class of #E mod 2 or 4 that the count starts on: three
    # roots of x^3 + 3x + a6 (4 | #E), none (#E odd), one (#E = 2 mod 4),
    # one (4 | #E); P42 = 2 mod 3, so they take both branches of #E mod 3
    # (a6 = 1, 2, 3: a point of order 3 with x in F_p; a6 = 15: none)
    info(P42, 3, 1, 4398045472572, 1038522, -1032103631243, 4),
    info(P42, 3, 2, 4398043953513, 2557581, -11050965472811, 1),
    info(P42, 3, 3, 4398046021590, 489504, -17352571878356, 1),
    info(P42, 3, 15, 4398047315792, -804698, -1059040448323, 4),
    # the largest prime below 2^42 that is 1 mod 3, one curve per t mod 3:
    # no fixed line of E[3] (t = 0), one with eigenvalue -1 (t = 1), four
    # with eigenvalue 1 (t = 2)
    info(4398046511071, 3, 4, 4398046718324, -207252, -4387308163195, 2),
    info(4398046511071, 3, 10, 4398044104186, 2406886, -11799085827288, 1),
    info(4398046511071, 3, 1, 4398045761016, 750056, -52560500127, 18),
    # 2^61 - 1, near MODULUS_CAP, where the Jacobian coordinates of scalar
    # multiplication have their largest intermediates
    info(2305843009213693951, 3, 7, 2305843011173202860, -1959508908,
         -1345924219080855835, 2),
    # --conductor only on curve-info and classify, --seed only beside
    # --A/--B: elsewhere argparse rejects them
    usage(f"ddh {EX2} --triple 2,3,6 --conductor 3"),
    usage("curve-info --name ex2-f701 --seed 1"),
    error("curve-info --p 11 --name ex4-rational", "denominator divisible by 11"),
    error("curve-info --p 701", "need --name or all of --p/--a4/--a6"),
]


def check_row(capsys, argv, code, stdout, err):
    got = main(argv)
    out, got_err = capsys.readouterr()
    if stdout.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (got, out) == (code, stdout)
    # exit 2 prints nothing on stdout and says why on stderr: one error=
    # line, or argparse's usage message for a row whose err is None
    assert code != 2 or (out == "" and got_err)
    if code != 2 or err:
        assert got_err == (f"{err}\n" if err else "")


@pytest.mark.parametrize("argv, code, stdout, err", CLI_ROWS,
                         ids=[row[0] for row in CLI_ROWS])
def test_cli_row(capsys, argv, code, stdout, err):
    check_row(capsys, shlex.split(argv), code, stdout, err)


def _one_error_line(capsys, argv, message):
    check_row(capsys, argv, 2, "", f"error={message}")


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


REJECTED = [
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
    # the README's other three error= examples, here and two rows down
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
    # ell = p, which classify_case rejects, as census does at its TorsionContext
    (["classify", "--p", "7", "--a4", "1", "--a6", "1", "--ell", "7"],
     "ell must differ from the field characteristic"),
    (["classify", "--name", "ex2-f701", "--ell", "701"],
     "ell must differ from the field characteristic"),
    # y^2 = x^3 + x + 5 over F_11 is anomalous (#E = 11): ell = p, where
    # the Weil pairing is not defined
    (["pairing", "--p", "11", "--a4", "1", "--a6", "5", "--ell", "11",
      "--A", "0,4", "--B", "2,2"],
     "ell must differ from the field characteristic"),
    # O is the one name of the identity
    (["pairing", "--name", "ex2-f701", "--ell", "5", "--A", "inf",
      "--B", "224,31"],
     "point must be 'x,y' or 'O', got 'inf'"),
    (["endo-apply", "--name", "ex2-f701", "--phi", "alpha_701", "--A", "0_E"],
     "point must be 'x,y' or 'O', got '0_E'"),
]


@pytest.mark.parametrize("argv, message", REJECTED)
def test_rejected_input_exit_2(capsys, argv, message):
    _one_error_line(capsys, argv, message)


def test_exit_codes_across_process_boundary():
    # the rows call main() in process; this runs sys.exit(main()) of the
    # module on the first row of each exit code
    for want in (0, 1, 2):
        argv, code, stdout, err = next(row for row in CLI_ROWS if row[1] == want)
        proc = subprocess.run(
            [sys.executable, "-m", "distmap.cli", *shlex.split(argv)],
            capture_output=True, env=ENV, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, stdout.encode(), f"{err}\n".encode() if err else b""), argv


def test_readme_cli_lines_are_rows():
    # each command and each error= example the README shows is a row, so a
    # README example that drifts from the code fails here
    readme = README.read_text()
    commands = re.findall(r"^distmap (.*?)(?:\s+#.*)?$", readme, re.M)
    errors = re.findall(r"^(error=.*?)\s+#", readme, re.M)
    assert (len(commands), len(errors)) == (10, 4)
    argvs = [shlex.split(row[0]) for row in CLI_ROWS]
    lines = [row[3] or "" for row in CLI_ROWS] + [f"error={m}" for _, m in REJECTED]
    for command in commands:
        assert shlex.split(command) in argvs, command
    for line in errors:
        pattern = re.escape(line).replace(re.escape("[...]"), r"\[.*\]")
        assert any(re.fullmatch(pattern, got) for got in lines), line


def test_one_character_sum_per_curve(count_calls):
    # at p <= 229 count_points sums the characters once per curve, and the
    # TorsionContext reads that sum: 13 symbols for the curve over F_13 and
    # one for its field's least non-residue, and none on a curve of the
    # catalog, which counted it when it was built
    builtin_catalog()
    legendre = count_calls(PrimeField, "legendre")
    for argv, calls in (
            ("census --p 13 --a4 1 --a6 0 --ell 2 --phi sqrt_minus_one", 14),
            ("ddh --name ex1-f5 --ell 2 --phi sqrt_minus_one --triple 1,1,1", 0)):
        assert main(shlex.split(argv)) == 0
        assert len(legendre) == calls, argv
        legendre.clear()


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
    # stderr.  argparse drops a failed write of its help, so unbuffered
    # --help exits 0
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv, code in ((f"census {C97} --phi sqrt_minus_one", 141),
                       ("census --help", 0 if unbuffered else 141)):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "distmap.cli", *shlex.split(argv)],
                stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (code, b""), argv


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
