"""Command-line surface.

Commands: curve-info, pairing, endo-apply, endo-matrix, classify, census,
ddh, paper-examples, catalog export.  Output is one key=value pair per
line in a fixed order; points print as "x,y" and the identity as "O".
Exit codes: 0 success/true, 1 negative decision or failed verification,
2 invalid input.
"""

import argparse
import sys

from . import catalog as catalog_mod
from .classify import (
    NO_DISTORTION,
    OrderData,
    classify_case,
    distortion_census,
    verify_theorem1,
)
from .curve import (
    BadReduction,
    CountingExhausted,
    Curve,
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
from .field import PrimeField
from .pairing import weil_pairing
from .torsion import (
    TorsionBasis,
    TorsionContext,
    find_torsion_basis,
    subgroup_lines,
)

INPUT_ERRORS = (ValueError, KeyError, CountingExhausted)


def point_str(A) -> str:
    return "O" if A is None else f"{A[0]},{A[1]}"


def parse_point(text: str):
    if text.strip() in ("O", "0_E", "inf"):
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'x,y' or 'O', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _resolve_curve(args):
    """(curve, frob, conductor) from --name, re-reduced when --p names
    another prime, or from --p/--a4/--a6; --conductor overrides."""
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
    if args.conductor is not None:
        conductor = args.conductor
    return curve, frob, conductor


def _basis(args, curve, frob) -> TorsionBasis:
    """The basis --A/--B of E[ell], or one sampled from --seed."""
    ctx = TorsionContext(args.ell, curve, frob)
    if bool(args.A) != bool(args.B):
        raise ValueError("give both --A and --B, or neither")
    if args.A:
        return TorsionBasis(ctx, parse_point(args.A), parse_point(args.B))
    return find_torsion_basis(ctx, seed=args.seed)


def _common_curve_flags(sp, need_ell=False):
    sp.add_argument("--name", help="catalog entry name")
    sp.add_argument("--p", type=int, help="prime modulus")
    sp.add_argument("--a4", type=int)
    sp.add_argument("--a6", "--b", dest="a6", type=int)
    sp.add_argument("--conductor", type=int, help="[O_K : O], overrides catalog")
    sp.add_argument("--seed", type=int, default=0)
    if need_ell:
        sp.add_argument("--ell", type=int, required=True)


def cmd_curve_info(args) -> int:
    curve, frob, c = _resolve_curve(args)
    od = OrderData.from_frobenius(frob.trace_t, frob.q, c)
    print(f"p={curve.p}")
    print(f"a4={curve.a4}")
    print(f"a6={curve.a6}")
    print(f"order={frob.order_n}")
    print(f"t={frob.trace_t}")
    print(f"d_K={od.d_K}")
    print(f"f_pi={od.f_pi}")
    print(f"conductor={od.c}")
    print("ordinary=true")
    return 0


def cmd_pairing(args) -> int:
    curve, _, _ = _resolve_curve(args)
    A = parse_point(args.A)
    B = parse_point(args.B)
    e = weil_pairing(curve, args.ell, A, B)
    print(f"e={e.value}")
    return 0


def cmd_endo_apply(args) -> int:
    curve, _, _ = _resolve_curve(args)
    e = make_catalog_endo(args.phi, curve)
    img = endo_eval(e, parse_point(args.A))
    print(f"phi={args.phi}")
    print(f"image={point_str(img)}")
    return 0


def cmd_endo_matrix(args) -> int:
    curve, frob, _ = _resolve_curve(args)
    B = _basis(args, curve, frob)
    e = make_catalog_endo(args.phi, curve)
    M = endo_matrix(e, B)
    (a, b), (c, d) = M.entries
    print(f"P={point_str(B.P)}")
    print(f"Q={point_str(B.Q)}")
    print(f"matrix={a},{b};{c},{d}")
    print(f"trace={M.trace()}")
    print(f"det={M.det()}")
    _, c1, c0 = char_poly_mod_ell(M)
    print(f"charpoly=X^2+{c1}X+{c0}")
    roots = quadratic_roots_mod((1, c1, c0), args.ell)
    print(f"roots={','.join(map(str, roots)) if roots else 'none'}")
    return 0


def cmd_classify(args) -> int:
    _, frob, c = _resolve_curve(args)
    od = OrderData.from_frobenius(frob.trace_t, frob.q, c)
    report = classify_case(od, args.ell)
    print(f"ell={args.ell}")
    print(f"case={report.case_tag}")
    print(f"predicted_distorted={report.predicted_count()}")
    for note in report.notes:
        print(f"note={note}")
    return 1 if report.case_tag == NO_DISTORTION else 0


def cmd_census(args) -> int:
    curve, frob, _ = _resolve_curve(args)
    B = _basis(args, curve, frob)
    e = make_catalog_endo(args.phi, curve)
    M = endo_matrix(e, B)
    report = distortion_census(M)
    print(f"P={point_str(B.P)}")
    print(f"Q={point_str(B.Q)}")
    for v in subgroup_lines(B.ell):
        mark = "eigen" if v in report.eigen_subgroups else "distorted"
        print(f"subgroup={point_str(B.combine(*v))}:{mark}")
    print(f"distorted={report.census_distorted}")
    print(f"case={report.case_tag}")
    return 1 if report.census_distorted == 0 else 0


def cmd_ddh(args) -> int:
    curve, frob, _ = _resolve_curve(args)
    B = _basis(args, curve, frob)
    phi = make_catalog_endo(args.phi, curve)
    a, b, c = (int(v) for v in args.triple.split(","))
    inst = DdhInstance(
        B.P,
        (
            scalar_mul(curve, a, B.P),
            scalar_mul(curve, b, B.P),
            scalar_mul(curve, c, B.P),
        ),
    )
    result = ddh_decide(B, phi, inst)
    print(f"P={point_str(B.P)}")
    print(f"triple={args.triple}")
    print(f"ddh={'true' if result else 'false'}")
    return 0 if result else 1


def _paper_example_rows():
    """(label, check) pairs reproducing the worked examples' assertions."""
    rows = []
    ex2 = catalog_mod.get_entry("ex2-f701")
    C = ex2.curve
    al = make_catalog_endo("alpha_701", C)
    P5, Q5 = (224, 31), (573, 450)

    rows.append(("ex2 point count #E=700 t=2",
                 lambda: (ex2.frob.order_n, ex2.frob.trace_t) == (700, 2)))
    rows.append(("ex2 alpha(224,31)=(173,194)",
                 lambda: endo_eval(al, P5) == (173, 194)))
    rows.append(("ex2 alpha(573,450)=(463,495)",
                 lambda: endo_eval(al, Q5) == (463, 495)))
    rows.append(("ex2 e_5(P,alpha(P))=464",
                 lambda: weil_pairing(C, 5, P5, endo_eval(al, P5)).value == 464))
    rows.append(("ex2 e_5(Q,alpha(Q))=89",
                 lambda: weil_pairing(C, 5, Q5, endo_eval(al, Q5)).value == 89))

    ctx5 = TorsionContext(5, C, ex2.frob)
    B5 = TorsionBasis(ctx5, P5, Q5)
    M5 = endo_matrix(al, B5)
    rows.append(("ex2 matrix (0 -1 / 2 1) mod 5",
                 lambda: M5.entries == ((0, 4), (2, 1))))
    rows.append(("ex2 trace=1 det=2 charpoly irreducible mod 5",
                 lambda: M5.trace() == 1 and M5.det() == 2
                 and not quadratic_roots_mod(char_poly_mod_ell(M5), 5)))
    rows.append(("ex2 classify ell=5 Inert, census 6/6",
                 lambda: classify_case(ex2.order, 5).case_tag == "Inert"
                 and distortion_census(M5).census_distorted == 6))

    ctx2 = TorsionContext(2, C, ex2.frob)
    B2 = TorsionBasis(ctx2, (319, 0), (389, 0))
    M2 = endo_matrix(al, B2)
    rows.append(("ex3 alpha(319,0)=O alpha(389,0)=(389,0)",
                 lambda: endo_eval(al, (319, 0)) is None
                 and endo_eval(al, (389, 0)) == (389, 0)))
    rows.append(("ex3 matrix diag(0,1), eigenvalues 0 and 1",
                 lambda: M2.entries == ((0, 0), (0, 1))))
    rows.append(("ex3 classify ell=2 Split, census 1/3",
                 lambda: classify_case(ex2.order, 2).case_tag == "Split"
                 and distortion_census(M2).census_distorted == 1))

    def ex1_check(p):
        def check():
            entry = catalog_mod.get_entry(f"ex1-f{p}")
            Cp = entry.curve
            e = make_catalog_endo("sqrt_minus_one", Cp)
            i = Cp.field.sqrt(p - 1)
            fixes = endo_eval(e, (0, 0)) == (0, 0)
            swaps = endo_eval(e, (i, 0)) == (-i % p, 0)
            ctx = TorsionContext(2, Cp, entry.frob)
            B = find_torsion_basis(ctx, seed=0)
            M = endo_matrix(e, B)
            report = verify_theorem1(entry.order, M, 2)
            return (fixes and swaps and report.census_distorted == 2
                    and classify_case(entry.order, 2).case_tag == "Ramified")
        return check

    for p in (5, 13, 17, 29):
        rows.append((f"ex1 p={p} [i] fixes <(0,0)>, Ramified, census 2/3",
                     ex1_check(p)))

    def ex4_check():
        entry = catalog_mod.get_entry("ex4-13")
        roots = [x for x in range(13) if entry.curve.rhs(x) == 0]
        ok = (entry.curve.a4, entry.curve.a6) == (11, 4) and roots == [6, 9, 11]
        ok = ok and classify_case(entry.order, 2).case_tag == NO_DISTORTION
        try:
            reduce_rational_curve(-3375, 121, 6750, 121, 11)
            return False
        except BadReduction:
            return ok

    rows.append(("ex4 reduction mod 13 ok, NoDistortion, mod 11 bad", ex4_check))

    def ddh_check():
        phi = al
        ok = True
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    inst = DdhInstance(
                        P5,
                        (scalar_mul(C, a, P5), scalar_mul(C, b, P5),
                         scalar_mul(C, c, P5)),
                    )
                    if ddh_decide(B5, phi, inst) != (a * b % 5 == c % 5):
                        ok = False
        return ok

    rows.append(("ddh exhaustive 125 triples on ex2", ddh_check))
    return rows


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="distmap",
        description="Distortion maps on ordinary curves with rational ell-torsion",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("curve-info", help="order, trace, discriminant data")
    _common_curve_flags(sp)
    sp.set_defaults(func=cmd_curve_info)

    sp = sub.add_parser("pairing", help="Weil pairing of two points")
    _common_curve_flags(sp, need_ell=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.set_defaults(func=cmd_pairing)

    sp = sub.add_parser("endo-apply", help="apply a catalog endomorphism")
    _common_curve_flags(sp)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--A", required=True)
    sp.set_defaults(func=cmd_endo_apply)

    sp = sub.add_parser("endo-matrix", help="action matrix on E[ell]")
    _common_curve_flags(sp, need_ell=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--A", help="basis point P (default: sampled)")
    sp.add_argument("--B", help="basis point Q (default: sampled)")
    sp.set_defaults(func=cmd_endo_matrix)

    sp = sub.add_parser("classify", help="distortion-map case for ell")
    _common_curve_flags(sp, need_ell=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("census", help="per-subgroup distortion census")
    _common_curve_flags(sp, need_ell=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--A", help="basis point P (default: sampled)")
    sp.add_argument("--B", help="basis point Q (default: sampled)")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("ddh", help="decide a DDH triple on <P>")
    _common_curve_flags(sp, need_ell=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--triple", required=True, help="scalars a,b,c")
    sp.add_argument("--A", help="basis point P (default: sampled)")
    sp.add_argument("--B", help="basis point Q (default: sampled)")
    sp.set_defaults(func=cmd_ddh)

    sp = sub.add_parser("paper-examples", help="run all golden checks")
    sp.set_defaults(func=cmd_paper_examples)

    sp = sub.add_parser("catalog", help="catalog operations")
    sp.add_argument("action", choices=["export"])
    sp.set_defaults(func=cmd_catalog)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
