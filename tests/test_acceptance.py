"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

All values are exact integers (zero tolerance throughout).

Known red: criterion 2's second golden value, e_5(Q, [alpha]Q) = 89, is
mutually inconsistent with the first (464) under any single bilinear
pairing, because [alpha]P = 2Q and [alpha]Q = Q - P force
e(P, [alpha]P) = e(P,Q)^2 and e(Q, [alpha]Q) = e(P,Q), while
89^2 = 210 != 464 mod 701.  The convention here is anchored on 464, so
the 89 assertion fails by 89 vs its inverse 638.  See test body.
"""

import itertools

import pytest

from conftest import small_curve, torsion_points
from distmap import (
    Curve,
    DdhInstance,
    OrderData,
    PrimeField,
    TorsionContext,
    classify_case,
    count_points,
    ddh_decide,
    distortion_census,
    endo_eval,
    endo_matrix,
    find_torsion_basis,
    make_catalog_endo,
    reduce_rational_curve,
    scalar_mul,
    verify_theorem1,
    weil_pairing,
)
from distmap.catalog import builtin_catalog
from distmap.curve import BadReduction
from distmap.endo import TorsionMatrix, char_poly_mod_ell, quadratic_roots_mod


def report(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


@pytest.fixture(scope="module")
def ex2(ex2_curve, ex2_frob, basis5, basis2, alpha):
    return dict(C=ex2_curve, frob=ex2_frob, B5=basis5, B2=basis2, alpha=alpha)


def test_criterion_1_endo_images(ex2):
    ok = (
        endo_eval(ex2["alpha"], (224, 31)) == (173, 194)
        and endo_eval(ex2["alpha"], (573, 450)) == (463, 495)
    )
    report("1: alpha images (224,31)->(173,194), (573,450)->(463,495)", ok)


def test_criterion_2_pairing_values(ex2):
    C, al = ex2["C"], ex2["alpha"]
    v1 = weil_pairing(C, 5, (224, 31), endo_eval(al, (224, 31)))
    v2 = weil_pairing(C, 5, (573, 450), endo_eval(al, (573, 450)))
    # exact values demanded: 464 and 89 under one pinned convention.
    # (464, 89) is unattainable for any bilinear pairing: the two
    # conventions give (210, 89) and (464, 638).  Anchored on 464 per the
    # pairing contract; the 89 half fails honestly (v2 = 638 = 89^-1).
    report("2: e_5(P,[a]P) = 464 and e_5(Q,[a]Q) = 89", (v1, v2) == (464, 89))


def test_criterion_3_matrix(ex2):
    M = endo_matrix(ex2["alpha"], ex2["B5"])
    cp = char_poly_mod_ell(M)
    ok = (
        M.trace() == 1
        and M.det() == 2
        and cp == (1, 4, 2)  # X^2 - X + 2 mod 5
        and quadratic_roots_mod(cp, 5) == []  # irreducible
        and M.entries == ((0, 4), (2, 1))  # (0 -1 / 2 1) on the paper basis
    )
    report("3: matrix (0 -1 / 2 1), trace 1, det 2, irreducible mod 5", ok)


def test_criterion_4_split_case(ex2):
    al, B2 = ex2["alpha"], ex2["B2"]
    M = endo_matrix(al, B2)
    census = distortion_census(M)
    cls = classify_case(OrderData(2, 701, 1), 2)
    ok = (
        endo_eval(al, (319, 0)) is None
        and endo_eval(al, (389, 0)) == (389, 0)
        and census.census_distorted == 1
        and cls.case_tag == "Split"
    )
    report("4: E[2] images, census 1 of 3, classify Split", ok)


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_criterion_5_ramified_family(p):
    C = Curve(PrimeField(p), 1, 0)
    frob = count_points(C)
    e = make_catalog_endo("sqrt_minus_one", C)
    i = C.field.sqrt(p - 1)
    fixes = endo_eval(e, (0, 0)) == (0, 0)
    swaps = (
        endo_eval(e, (i, 0)) == (-i % p, 0)
        and endo_eval(e, (-i % p, 0)) == (i, 0)
    )
    B = find_torsion_basis(TorsionContext(2, C, frob), seed=0)
    census = distortion_census(endo_matrix(e, B))
    od = OrderData(frob.trace_t, p, 1)
    cls = classify_case(od, 2)
    ok = (
        fixes and swaps
        and od.d_K == -4
        and cls.case_tag == "Ramified"
        and census.census_distorted == 2
    )
    report(f"5: p={p} [i] fixes <(0,0)>, swaps others, Ramified, census 2 of 3", ok)


def test_criterion_6_no_distortion():
    C13 = reduce_rational_curve(-3375, 121, 6750, 121, 13)
    roots = sorted(x for x in range(13) if C13.rhs(x) == 0)
    cls = classify_case(OrderData(2, 13, 2), 2)
    try:
        reduce_rational_curve(-3375, 121, 6750, 121, 11)
        bad11 = False
    except BadReduction:
        bad11 = True
    ok = (
        (C13.a4, C13.a6) == (11, 4)
        and roots == [6, 9, 11]
        and cls.case_tag == "NoDistortion"
        and bad11
    )
    report("6: reduction mod 13 with roots {6,9,11}, NoDistortion, bad at 11", ok)


def test_criterion_7_ddh_exhaustive(ex2):
    C, B5, al = ex2["C"], ex2["B5"], ex2["alpha"]
    P = B5.P
    ok = True
    for a, b, c in itertools.product(range(5), repeat=3):
        inst = DdhInstance(
            P, (scalar_mul(C, a, P), scalar_mul(C, b, P), scalar_mul(C, c, P))
        )
        if ddh_decide(B5, al, inst) != (a * b % 5 == c % 5):
            ok = False
            break
    report("7: DDH decision matches ground truth on all 125 triples", ok)


def test_criterion_8_property_suites(ex2):
    C, frob, al = ex2["C"], ex2["frob"], ex2["alpha"]
    ok = True

    # Weil pairing bilinear/alternating/nondegenerate on E[2] and E[5]
    for B, ell in ((ex2["B2"], 2), (ex2["B5"], 5)):
        pts = torsion_points(B)
        z = weil_pairing(C, ell, B.P, B.Q)
        ok &= z != 1 and pow(z, ell, C.p) == 1
        for (a, b), (c, d) in itertools.product(pts, repeat=2):
            v = weil_pairing(C, ell, pts[(a, b)], pts[(c, d)])
            ok &= v == pow(z, (a * d - b * c) % ell, C.p)

    # char-poly identity for every catalog endomorphism
    for label, ell in (
        ("alpha_701", 5), ("alpha_701", 2), ("scalar(3)", 5), ("scalar(3)", 2),
    ):
        B = find_torsion_basis(TorsionContext(ell, C, frob))
        e = make_catalog_endo(label, C)
        M = endo_matrix(e, B)
        ok &= char_poly_mod_ell(M) == (1, -e.trace % ell, e.norm % ell)
    C13 = Curve(PrimeField(13), 1, 0)
    B13 = find_torsion_basis(TorsionContext(2, C13, count_points(C13)))
    e13 = make_catalog_endo("sqrt_minus_one", C13)
    M13 = endo_matrix(e13, B13)
    ok &= char_poly_mod_ell(M13) == (1, -e13.trace % 2, e13.norm % 2)

    # census trichotomy over all non-scalar matrices mod 2, 3, 5
    for ell in (2, 3, 5):
        for entries in itertools.product(range(ell), repeat=4):
            M = TorsionMatrix(ell, (entries[:2], entries[2:]))
            n = distortion_census(M).census_distorted
            if entries[1] == entries[2] == 0 and entries[0] == entries[3]:
                ok &= n == 0
            else:
                ok &= n in (ell - 1, ell, ell + 1)

    # Hasse bound and Lagrange on every catalog curve
    for entry in builtin_catalog().values():
        fd = entry.frob
        ok &= fd.trace_t ** 2 <= 4 * fd.q
        for A in small_curve(entry.curve).lifts:
            ok &= scalar_mul(entry.curve, fd.order_n, A) is None

    report("8: pairing laws, char-poly identity, census trichotomy, Hasse/Lagrange", ok)


def test_criterion_9_theorem1_cross_check(ex2):
    al = ex2["alpha"]
    M_inert = endo_matrix(al, ex2["B5"])
    M_split = endo_matrix(al, ex2["B2"])

    C5 = Curve(PrimeField(5), 1, 0)
    e5 = make_catalog_endo("sqrt_minus_one", C5)
    B_ram = find_torsion_basis(TorsionContext(2, C5, count_points(C5)), seed=0)
    M_ram = endo_matrix(e5, B_ram)

    C13 = reduce_rational_curve(-3375, 121, 6750, 121, 13)
    B_nod = find_torsion_basis(TorsionContext(2, C13, count_points(C13)), seed=0)
    M_nod = endo_matrix(make_catalog_endo("scalar(1)", C13), B_nod)

    ok = (
        verify_theorem1(OrderData(2, 701, 1), M_inert, 5).census_distorted == 6
        and verify_theorem1(OrderData(2, 701, 1), M_split, 2).census_distorted == 1
        and verify_theorem1(OrderData(2, 5, 1), M_ram, 2).census_distorted == 2
        and verify_theorem1(OrderData(2, 13, 2), M_nod, 2).census_distorted == 0
    )
    report("9: Theorem 1 census counts 6 / 1 / 2 / 0 across the four cases", ok)
