import itertools
import random

import pytest

from conftest import (
    combine,
    dlog_reference,
    random_points,
    shifted_endo,
    small_curve,
    torsion_points,
)
from distmap.catalog import get_entry
from distmap.curve import (
    Curve,
    PointNotOnCurve,
    count_points,
    point_add,
    point_neg,
    scalar_mul,
)
from distmap.endo import (
    ImageOffCurve,
    IncompatibleCurve,
    _rational_map,
    char_poly_mod_ell,
    endo_eval,
    endo_matrix,
    make_catalog_endo,
    quadratic_roots_mod,
)
from distmap.field import PrimeField
from distmap.torsion import TorsionContext, find_torsion_basis


def test_alpha_catalog(ex2_curve, alpha):
    assert alpha.trace == 1 and alpha.norm == 2  # X^2 - X + 2


def test_alpha_wrong_curve():
    C = Curve(PrimeField(13), 1, 0)
    with pytest.raises(IncompatibleCurve):
        make_catalog_endo("alpha_701", C)


def test_sqrt_minus_one_mod13():
    C = Curve(PrimeField(13), 1, 0)
    e = make_catalog_endo("sqrt_minus_one", C)
    # i = 5 is the smaller root of -1 mod 13
    assert endo_eval(e, (5, 0)) == (8, 0)
    assert endo_eval(e, (0, 0)) == (0, 0)


def test_sqrt_minus_one_requires_p_1_mod_4():
    with pytest.raises(IncompatibleCurve):
        make_catalog_endo("sqrt_minus_one", Curve(PrimeField(7), 1, 0))
    with pytest.raises(IncompatibleCurve):
        make_catalog_endo("sqrt_minus_one", Curve(PrimeField(13), 1, 1))


def test_image_off_curve_raises(ex2_curve):
    # x -> x + 1, y -> y is no endomorphism: it sends (224, 31) on ex2 to
    # (225, 31), off the curve, and the image function says so by label
    image = _rational_map(ex2_curve, "bad", [1, 1], [1], [1])
    assert ex2_curve.validate((224, 31)) == (224, 31)
    with pytest.raises(PointNotOnCurve):
        ex2_curve.validate((225, 31))
    with pytest.raises(ImageOffCurve, match=r"bad sent \(224, 31\) to \(225, 31\)"):
        image((224, 31))


def test_matrix_basis_on_another_curve(basis5):
    e = make_catalog_endo("sqrt_minus_one", Curve(PrimeField(13), 1, 0))
    with pytest.raises(IncompatibleCurve, match="different curves"):
        endo_matrix(e, basis5)


def test_unknown_label(ex2_curve):
    with pytest.raises(IncompatibleCurve):
        make_catalog_endo("frobenius", ex2_curve)


def test_alpha_paper_images(ex2_curve, alpha):
    assert endo_eval(alpha, (224, 31)) == (173, 194)
    assert endo_eval(alpha, (573, 450)) == (463, 495)


def test_alpha_two_torsion(ex2_curve, alpha):
    # kernel point maps to the identity; (389,0) is fixed
    assert endo_eval(alpha, (319, 0)) is None
    assert endo_eval(alpha, (389, 0)) == (389, 0)


def test_identity_maps_to_identity(alpha):
    assert endo_eval(alpha, None) is None


def test_scalar_endo(ex2_curve):
    e = make_catalog_endo("scalar(3)", ex2_curve)
    assert e.trace == 6 and e.norm == 9
    A = (224, 31)
    assert endo_eval(e, A) == scalar_mul(ex2_curve, 3, A)


def test_homomorphism_exhaustive_on_torsion(ex2_curve, basis5, basis2, alpha):
    for B, ell in ((basis5, 5), (basis2, 2)):
        pts = torsion_points(B).values()
        for A1, A2 in itertools.product(pts, repeat=2):
            lhs = endo_eval(alpha, point_add(ex2_curve, A1, A2))
            rhs = point_add(
                ex2_curve, endo_eval(alpha, A1), endo_eval(alpha, A2)
            )
            assert lhs == rhs


def test_homomorphism_random_full_group(ex2_curve, alpha):
    pts = random.Random(42).sample(small_curve(ex2_curve).points, 30)
    checked = 0
    for A1, A2 in itertools.product(pts, repeat=2):
        lhs = endo_eval(alpha, point_add(ex2_curve, A1, A2))
        rhs = point_add(ex2_curve, endo_eval(alpha, A1), endo_eval(alpha, A2))
        assert lhs == rhs
        checked += 1
    assert checked >= 100


def test_matrix_paper_basis(basis5, alpha):
    M = endo_matrix(alpha, basis5)
    assert M.entries == ((0, 4), (2, 1))  # (0 -1 / 2 1) mod 5
    assert M.trace() == 1 and M.det() == 2


def test_matrix_split_basis(basis2, alpha):
    M = endo_matrix(alpha, basis2)
    assert M.entries == ((0, 0), (0, 1))
    assert quadratic_roots_mod(char_poly_mod_ell(M), 2) == [0, 1]


def test_matrix_matches_reference_dlog(basis31, basis97):
    # the columns are the baby-step/giant-step logs of phi(P) and phi(Q)
    for B in (basis31, basis97):
        i = make_catalog_endo("sqrt_minus_one", B.curve)
        for phi in (i, shifted_endo(i, 1), shifted_endo(i, 5)):
            (aP, aQ), (bP, bQ) = endo_matrix(phi, B).entries
            assert dlog_reference(B, phi.image(B.P)) == (aP, bP), (B.ell, phi)
            assert dlog_reference(B, phi.image(B.Q)) == (aQ, bQ), (B.ell, phi)
    # the basis of seed 0 at ell = 97 is the CLI's: the matrix it prints
    i97 = make_catalog_endo("sqrt_minus_one", basis97.curve)
    assert endo_matrix(i97, basis97).entries == ((22, 78), (0, 75))


def test_scalar_matrix(basis5, ex2_curve):
    e = make_catalog_endo("scalar(3)", ex2_curve)
    M = endo_matrix(e, basis5)
    assert M.entries == ((3, 0), (0, 3))


def test_charpoly_values(basis5, basis2, alpha, ex2_curve):
    M5 = endo_matrix(alpha, basis5)
    assert char_poly_mod_ell(M5) == (1, 4, 2)  # X^2 - X + 2 mod 5
    assert quadratic_roots_mod((1, 4, 2), 5) == []  # irreducible mod 5
    M2 = endo_matrix(alpha, basis2)
    assert char_poly_mod_ell(M2) == (1, 1, 0)  # X(X+1) mod 2
    e1 = make_catalog_endo("scalar(1)", ex2_curve)
    assert char_poly_mod_ell(endo_matrix(e1, basis5)) == (1, 3, 1)  # (X-1)^2


def test_charpoly_equals_minpoly_mod_ell(ex2_curve, ex2_frob):
    # the principal identity: minimal polynomial reduced mod ell is the
    # characteristic polynomial of the torsion action
    cases = [("alpha_701", 5), ("alpha_701", 2), ("scalar(2)", 5), ("scalar(4)", 2)]
    for label, ell in cases:
        B = find_torsion_basis(TorsionContext(ell, ex2_curve, ex2_frob))
        e = make_catalog_endo(label, ex2_curve)
        M = endo_matrix(e, B)
        assert char_poly_mod_ell(M) == (1, -e.trace % ell, e.norm % ell)
    C13 = Curve(PrimeField(13), 1, 0)
    fd = count_points(C13)
    B = find_torsion_basis(TorsionContext(2, C13, fd))
    e = make_catalog_endo("sqrt_minus_one", C13)
    M = endo_matrix(e, B)
    assert char_poly_mod_ell(M) == (1, -e.trace % 2, e.norm % 2)  # X^2+1


def test_trace_det_basis_independent(ex2_curve, ex2_frob, alpha):
    ctx = TorsionContext(5, ex2_curve, ex2_frob)
    seen = set()
    for seed in range(10):
        B = find_torsion_basis(ctx, seed=seed)
        M = endo_matrix(alpha, B)
        seen.add((M.trace(), M.det()))
    assert seen == {(1, 2)}


def test_frobenius_acts_as_identity(ex2_curve, basis5):
    # q = 1, t = 2 mod ell: the q-power Frobenius fixes E[ell] pointwise
    for A in torsion_points(basis5).values():
        if A is not None:
            x, y = A
            assert (pow(x, 701, 701), pow(y, 701, 701)) == (x, y)


def test_shifted_endo_minpoly(ex2_curve, basis5, alpha):
    for k in range(5):
        e = shifted_endo(alpha, k)
        M = endo_matrix(e, basis5)
        assert char_poly_mod_ell(M) == (1, -e.trace % 5, e.norm % 5)


def _satisfies_minpoly(e, A):
    """e(e(A)) - trace*e(A) + norm*A = O, as e(e(A)) + norm*A = trace*e(A)."""
    C = e.curve
    eA = endo_eval(e, A)
    lhs = point_add(C, endo_eval(e, eA), scalar_mul(C, e.norm, A))
    return lhs == scalar_mul(C, e.trace, eA)


def test_alpha_minpoly_on_whole_group(ex2_curve, alpha):
    pts = small_curve(ex2_curve).points
    assert len(pts) == 700
    assert all(_satisfies_minpoly(alpha, A) for A in pts)


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_sqrt_minus_one_squares_to_minus_one(p):
    C = get_entry(f"ex1-f{p}").curve
    i = make_catalog_endo("sqrt_minus_one", C)
    for A in small_curve(C).points:
        assert endo_eval(i, endo_eval(i, A)) == point_neg(C, A)
        assert _satisfies_minpoly(i, A)


def test_nested_shift_matches_single_shift(basis5, alpha):
    nested = shifted_endo(shifted_endo(alpha, 1), 2)
    once = shifted_endo(alpha, 3)
    assert (nested.trace, nested.norm) == (once.trace, once.norm) == (7, 14)
    for A in torsion_points(basis5).values():
        assert endo_eval(nested, A) == endo_eval(once, A)
    assert endo_matrix(nested, basis5) == endo_matrix(once, basis5)


def _two_denominator_map(C, x_num, x_den, y_num, y_den):
    """Reference image (x, y) -> (x_num/x_den, y * y_num/y_den), with a
    y-denominator of its own; coefficients highest degree first."""
    p = C.p

    def ev(coeffs, x):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % p
        return acc

    def image(A):
        if A is None:
            return None
        x, y = A
        xd, yd = ev(x_den, x), ev(y_den, x)
        if xd == 0 or yd == 0:
            return None
        return (ev(x_num, x) * pow(xd, -1, p) % p,
                y * ev(y_num, x) * pow(yd, -1, p) % p)

    return image


def test_alpha_one_denominator_matches_two(ex2_curve, alpha):
    p, a = 701, 386
    c, d = (a * a - 2) % p, 7 * pow(1 - a, 4, p) % p
    ia2, ia3 = pow(a * a, -1, p), pow(a, -3, p)
    ref = _two_denominator_map(
        ex2_curve,
        [ia2, ia2 * c, -ia2 * d], [1, c],
        [ia3, 2 * c * ia3, ia3 * (c * c + d)], [1, 2 * c, c * c],
    )
    pts = small_curve(ex2_curve).points
    assert len(pts) == 700
    for A in pts:
        assert alpha.image(A) == ref(A)


def _sqrt_minus_one_reference(C):
    p = C.p
    return _two_denominator_map(C, [-1, 0], [1], [C.field.sqrt(p - 1)], [1])


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_sqrt_minus_one_one_denominator_matches_two(p):
    C = get_entry(f"ex1-f{p}").curve
    i, ref = make_catalog_endo("sqrt_minus_one", C), _sqrt_minus_one_reference(C)
    for A in small_curve(C).points:
        assert i.image(A) == ref(A)


def test_sqrt_minus_one_one_denominator_matches_two_ell31(basis31):
    C = basis31.curve
    i, ref = make_catalog_endo("sqrt_minus_one", C), _sqrt_minus_one_reference(C)
    rng = random.Random(31)
    pts = [combine(basis31, rng.randrange(31), rng.randrange(31)) for _ in range(64)]
    pts += random_points(C, 31, 128)
    for A in pts:
        assert i.image(A) == ref(A)
