"""Command-line surface.

Commands: curve-info, pairing, endo-apply, endo-matrix, classify, census,
ddh, paper-examples, catalog export.  Output is one key=value pair per
line in a fixed order; points print as "x,y" and the identity as "O".
Exit codes: 0 success/true, 1 negative decision or failed verification,
2 invalid input, 141 (128 + SIGPIPE) when the reader closed stdout.
"""

import argparse
import os
import sys
from functools import cache, partial
from itertools import product

from . import catalog as catalog_mod
from .classify import (
    INERT,
    NO_DISTORTION,
    RAMIFIED,
    SPLIT,
    OrderData,
    classify_case,
    distortion_census,
    verify_theorem1,
)
from .curve import (
    BadReduction,
    CountingExhausted,
    Curve,
    _progression,
    count_points,
    reduce_rational_curve,
    scalar_mul,
)
from .ddh import DdhInstance, ddh_decide
from .endo import (
    char_poly_mod_ell,
    endo_eval,
    endo_matrix,
    make_catalog_endo,
    quadratic_roots_mod,
)
from .field import PrimeField, check_ell
from .pairing import weil_pairing
from .torsion import TorsionBasis, TorsionContext, find_torsion_basis

INPUT_ERRORS = (ValueError, CountingExhausted)


def point_str(A) -> str:
    return "O" if A is None else f"{A[0]},{A[1]}"


def parse_point(text: str):
    if text.strip() in ("O", "0_E", "inf"):
        return None
    try:
        x, y = map(int, text.split(","))
    except ValueError:
        raise ValueError(f"point must be 'x,y' or 'O', got {text!r}") from None
    return (x, y)


def _resolve_curve(args):
    """(curve, frob, conductor) from --name, re-reduced when --p names
    another prime, or from --p/--a4/--a6."""
    if args.name and (args.a4 is not None or args.a6 is not None):
        raise ValueError("give --name or --a4/--a6, not both")
    if args.name:
        entry = catalog_mod.get_entry(args.name)
        if args.p is not None and args.p != entry.p:
            entry = entry.with_prime(args.p)
        curve, frob, conductor = entry.curve, entry.frob, entry.order.c
    else:
        if args.p is None or args.a4 is None or args.a6 is None:
            raise ValueError("need --name or all of --p/--a4/--a6")
        curve = Curve(PrimeField(args.p), args.a4, args.a6)
        frob, conductor = count_points(curve), 1
    return curve, frob, conductor


def _order_data(args) -> tuple:
    """(curve, frob, OrderData) of the resolved curve; --conductor
    overrides its conductor."""
    curve, frob, c = _resolve_curve(args)
    c = c if args.conductor is None else args.conductor
    return curve, frob, OrderData.from_frobenius(frob.trace_t, frob.q, c)


def _resolve_basis(args) -> tuple:
    """(basis, phi): the basis --A/--B of E[ell], or one sampled from
    --seed, and the catalog endomorphism --phi, on the resolved curve."""
    curve, frob, _ = _resolve_curve(args)
    ctx = TorsionContext(args.ell, curve, frob)
    if bool(args.A) != bool(args.B):
        raise ValueError("give both --A and --B, or neither")
    if args.A:
        B = TorsionBasis(ctx, parse_point(args.A), parse_point(args.B))
    else:
        B = find_torsion_basis(ctx, seed=args.seed)
    return B, make_catalog_endo(args.phi, curve)


def _ddh_instance(B: TorsionBasis, a: int, b: int, c: int) -> DdhInstance:
    """The DDH instance (aP, bP, cP) on the basis point P."""
    return DdhInstance(B.P, [scalar_mul(B.curve, k, B.P) for k in (a, b, c)])


def _emit(**fields) -> None:
    """The output format: one key=value line per field, in order."""
    for key, value in fields.items():
        print(f"{key}={value}")


def cmd_curve_info(args) -> int:
    curve, frob, od = _order_data(args)
    _emit(p=curve.p, a4=curve.a4, a6=curve.a6, order=frob.order_n,
          t=frob.trace_t, d_K=od.d_K, f_pi=od.f_pi, conductor=od.c,
          ordinary="true")
    return 0


def cmd_pairing(args) -> int:
    curve, _, _ = _resolve_curve(args)
    A = parse_point(args.A)
    B = parse_point(args.B)
    _emit(e=weil_pairing(curve, args.ell, A, B))
    return 0


def cmd_endo_apply(args) -> int:
    curve, _, _ = _resolve_curve(args)
    e = make_catalog_endo(args.phi, curve)
    img = endo_eval(e, parse_point(args.A))
    _emit(phi=args.phi, image=point_str(img))
    return 0


def cmd_endo_matrix(args) -> int:
    B, phi = _resolve_basis(args)
    M = endo_matrix(phi, B)
    (a, b), (c, d) = M.entries
    poly = char_poly_mod_ell(M)
    roots = quadratic_roots_mod(poly, args.ell)
    _emit(P=point_str(B.P), Q=point_str(B.Q), matrix=f"{a},{b};{c},{d}",
          trace=M.trace(), det=M.det(), charpoly=f"X^2+{poly[1]}X+{poly[2]}",
          roots=",".join(map(str, roots)) if roots else "none")
    return 0


def cmd_classify(args) -> int:
    _, frob, od = _order_data(args)
    check_ell(args.ell, frob.q)
    report = classify_case(od, args.ell)
    _emit(ell=args.ell, case=report.case_tag,
          predicted_distorted=report.predicted_count())
    for note in report.notes:
        _emit(note=note)
    return 1 if report.case_tag == NO_DISTORTION else 0


def cmd_census(args) -> int:
    B, phi = _resolve_basis(args)
    report = distortion_census(endo_matrix(phi, B))
    eigen = set(report.eigen_subgroups)
    # <Q>, then <P + k*Q> for k = 0 .. ell-1, each beside its coordinates
    lines = [(0, 1), *((1, k) for k in range(B.ell))]
    gens = [B.Q, *_progression(B.curve, B.P, B.Q, B.ell)]
    _emit(P=point_str(B.P), Q=point_str(B.Q))
    for v, G in zip(lines, gens):
        mark = "eigen" if v in eigen else "distorted"
        _emit(subgroup=f"{point_str(G)}:{mark}")
    _emit(distorted=report.census_distorted, case=report.case_tag)
    return 1 if report.census_distorted == 0 else 0


def cmd_ddh(args) -> int:
    B, phi = _resolve_basis(args)
    try:
        a, b, c = map(int, args.triple.split(","))
    except ValueError:
        raise ValueError(f"triple must be 'a,b,c', got {args.triple!r}") from None
    result = ddh_decide(B, phi, _ddh_instance(B, a, b, c))
    _emit(P=point_str(B.P), triple=args.triple, ddh="true" if result else "false")
    return 0 if result else 1


def _ex1_check(p: int) -> bool:
    entry = catalog_mod.get_entry(f"ex1-f{p}")
    C = entry.curve
    e = make_catalog_endo("sqrt_minus_one", C)
    i = C.field.sqrt(p - 1)
    fixes = endo_eval(e, (0, 0)) == (0, 0)
    swaps = endo_eval(e, (i, 0)) == (-i % p, 0)
    B = find_torsion_basis(TorsionContext(2, C, entry.frob), seed=0)
    report = verify_theorem1(entry.order, endo_matrix(e, B), 2)
    return (fixes and swaps and report.census_distorted == 2
            and classify_case(entry.order, 2).case_tag == RAMIFIED)


def _ex4_check() -> bool:
    entry = catalog_mod.get_entry("ex4-13")
    roots = [x for x in range(13) if entry.curve.rhs(x) == 0]
    ok = (entry.curve.a4, entry.curve.a6) == (11, 4) and roots == [6, 9, 11]
    ok = ok and classify_case(entry.order, 2).case_tag == NO_DISTORTION
    try:
        reduce_rational_curve(-3375, 121, 6750, 121, 11)
        return False
    except BadReduction:
        return ok


def _ddh_check(B: TorsionBasis, phi) -> bool:
    ell = B.ell
    return all(ddh_decide(B, phi, _ddh_instance(B, a, b, c)) == (a * b % ell == c)
               for a, b, c in product(range(ell), repeat=3))


def _paper_example_rows():
    """(label, check) pairs reproducing the worked examples' assertions."""
    P5, Q5 = (224, 31), (573, 450)
    # built by the first row that needs them, so a failure is that row's
    ex2 = cache(lambda: catalog_mod.get_entry("ex2-f701"))
    al = cache(lambda: make_catalog_endo("alpha_701", ex2().curve))
    B5 = cache(lambda: TorsionBasis(TorsionContext(5, ex2().curve, ex2().frob), P5, Q5))
    M5 = cache(lambda: endo_matrix(al(), B5()))
    B2 = cache(lambda: TorsionBasis(TorsionContext(2, ex2().curve, ex2().frob),
                                    (319, 0), (389, 0)))
    M2 = cache(lambda: endo_matrix(al(), B2()))
    return [
        ("ex2 point count #E=700 t=2",
         lambda: (ex2().frob.order_n, ex2().frob.trace_t) == (700, 2)),
        ("ex2 alpha(224,31)=(173,194)",
         lambda: endo_eval(al(), P5) == (173, 194)),
        ("ex2 alpha(573,450)=(463,495)",
         lambda: endo_eval(al(), Q5) == (463, 495)),
        ("ex2 e_5(P,alpha(P))=464",
         lambda: weil_pairing(ex2().curve, 5, P5, endo_eval(al(), P5)) == 464),
        ("ex2 e_5(Q,alpha(Q))=89",
         lambda: weil_pairing(ex2().curve, 5, Q5, endo_eval(al(), Q5)) == 89),
        ("ex2 matrix (0 -1 / 2 1) mod 5",
         lambda: M5().entries == ((0, 4), (2, 1))),
        ("ex2 trace=1 det=2 charpoly irreducible mod 5",
         lambda: M5().trace() == 1 and M5().det() == 2
         and not quadratic_roots_mod(char_poly_mod_ell(M5()), 5)),
        ("ex2 classify ell=5 Inert, census 6/6",
         lambda: classify_case(ex2().order, 5).case_tag == INERT
         and distortion_census(M5()).census_distorted == 6),
        ("ex3 alpha(319,0)=O alpha(389,0)=(389,0)",
         lambda: endo_eval(al(), (319, 0)) is None
         and endo_eval(al(), (389, 0)) == (389, 0)),
        ("ex3 matrix diag(0,1), eigenvalues 0 and 1",
         lambda: M2().entries == ((0, 0), (0, 1))),
        ("ex3 classify ell=2 Split, census 1/3",
         lambda: classify_case(ex2().order, 2).case_tag == SPLIT
         and distortion_census(M2()).census_distorted == 1),
        *[(f"ex1 p={p} [i] fixes <(0,0)>, Ramified, census 2/3",
           partial(_ex1_check, p)) for p in (5, 13, 17, 29)],
        ("ex4 reduction mod 13 ok, NoDistortion, mod 11 bad", _ex4_check),
        ("ddh exhaustive 125 triples on ex2", lambda: _ddh_check(B5(), al())),
    ]


def cmd_paper_examples(args) -> int:
    rows = _paper_example_rows()
    failures = 0
    for label, check in rows:
        reason = "check returned false"
        try:
            ok = bool(check())
        except Exception as exc:
            ok = False
            reason = f"{type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
            print(f"reason[{label}]={reason}", file=sys.stderr)
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    print(f"total={len(rows)} failed={failures}")
    return 0 if failures == 0 else 1


def cmd_catalog(args) -> int:
    # argparse admits only the action "export"
    sys.stdout.write(catalog_mod.export_catalog())
    return 0


_CURVE = (
    ("--name", {"help": "catalog entry name"}),
    ("--p", {"type": int, "help": "prime modulus"}),
    ("--a4", {"type": int}),
    ("--a6", "--b", {"dest": "a6", "type": int}),
)
_CONDUCTOR = ("--conductor", {"type": int, "help": "[O_K : O], overrides catalog"})
_ELL = ("--ell", {"type": int, "required": True})
_PHI = ("--phi", {"required": True})
_A = ("--A", {"required": True})
_B = ("--B", {"required": True})
_TRIPLE = ("--triple", {"required": True, "help": "scalars a,b,c"})
_BASIS = (
    ("--A", {"help": "basis point P (default: sampled)"}),
    ("--B", {"help": "basis point Q (default: sampled)"}),
    ("--seed", {"type": int, "default": 0}),
)

# one declaration per command: name, handler, help, flags
_COMMANDS = (
    ("curve-info", cmd_curve_info, "order, trace, discriminant data",
     (*_CURVE, _CONDUCTOR)),
    ("pairing", cmd_pairing, "Weil pairing of two points", (*_CURVE, _ELL, _A, _B)),
    ("endo-apply", cmd_endo_apply, "apply a catalog endomorphism", (*_CURVE, _PHI, _A)),
    ("endo-matrix", cmd_endo_matrix, "action matrix on E[ell]",
     (*_CURVE, _ELL, _PHI, *_BASIS)),
    ("classify", cmd_classify, "distortion-map case for ell",
     (*_CURVE, _CONDUCTOR, _ELL)),
    ("census", cmd_census, "per-subgroup distortion census",
     (*_CURVE, _ELL, _PHI, *_BASIS)),
    ("ddh", cmd_ddh, "decide a DDH triple on <P>",
     (*_CURVE, _ELL, _PHI, _TRIPLE, *_BASIS)),
    ("paper-examples", cmd_paper_examples, "run all golden checks", ()),
    ("catalog", cmd_catalog, "catalog operations",
     (("action", {"choices": ["export"]}),)),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="distmap",
        description="Distortion maps on ordinary curves with rational ell-torsion",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for *names, kwargs in flags:
            sp.add_argument(*names, **kwargs)
        sp.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        try:
            args = ap.parse_args(argv)
        except SystemExit as exc:  # --help, or argparse's usage message
            code = 2 if exc.code not in (0, None) else 0
        else:
            code = args.func(args)
        sys.stdout.flush()
        return code
    except INPUT_ERRORS as exc:
        print(f"error={exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: quiet the final flush, exit as SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
