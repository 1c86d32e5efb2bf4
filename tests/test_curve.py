import itertools

import pytest

from distmap.curve import (
    BadReduction,
    Curve,
    PointNotOnCurve,
    SupersingularCurve,
    count_points,
    point_add,
    point_neg,
    reduce_rational_curve,
    scalar_mul,
)
from distmap.field import PrimeField


def all_points(C):
    pts = [None]
    for x in range(C.p):
        rhs = C.rhs(x)
        y = C.field.sqrt(rhs)
        if y is None:
            continue
        pts.append((x, y))
        if y != 0:
            pts.append((x, C.p - y))
    return pts


def test_singular_rejected():
    with pytest.raises(ValueError):
        Curve(PrimeField(701), 0, 0)


def test_point_validation():
    C = Curve(PrimeField(701), -35, 98)
    with pytest.raises(PointNotOnCurve):
        point_add(C, (1, 1), None)
    with pytest.raises(PointNotOnCurve):
        point_add(C, (224, 31), (1, 1))
    with pytest.raises(PointNotOnCurve):
        scalar_mul(C, 0, (1, 1))
    with pytest.raises(PointNotOnCurve):
        scalar_mul(C, -3, (1, 1))


def test_identity_law(ex2_curve):
    assert point_add(ex2_curve, (319, 0), None) == (319, 0)


def test_two_torsion_doubling(ex2_curve):
    assert point_add(ex2_curve, (319, 0), (319, 0)) is None


def test_two_torsion_sum(ex2_curve):
    # third root of x^3 - 35x + 98 mod 701; roots sum to 0
    assert point_add(ex2_curve, (319, 0), (389, 0)) == (694, 0)
    assert ex2_curve.rhs(694) == 0


def test_scalar_mul_five_torsion(ex2_curve):
    assert scalar_mul(ex2_curve, 5, (224, 31)) is None
    assert scalar_mul(ex2_curve, 0, (224, 31)) is None


def test_scalar_mul_matches_add(ex2_curve):
    A = (573, 450)
    assert scalar_mul(ex2_curve, 2, A) == point_add(ex2_curve, A, A)


def test_negative_scalar(ex2_curve):
    A = (224, 31)
    assert scalar_mul(ex2_curve, -2, A) == point_neg(
        ex2_curve, scalar_mul(ex2_curve, 2, A)
    )


@pytest.mark.parametrize("p,a4,a6", [(13, 1, 0), (17, 2, 3), (31, 5, 7)])
def test_group_laws_exhaustive(p, a4, a6):
    C = Curve(PrimeField(p), a4, a6)
    pts = all_points(C)
    for A, B in itertools.product(pts, repeat=2):
        assert point_add(C, A, B) == point_add(C, B, A)
    for A, B, D in itertools.islice(itertools.product(pts, repeat=3), 4000):
        assert point_add(C, point_add(C, A, B), D) == point_add(
            C, A, point_add(C, B, D)
        )
    for A in pts:
        assert point_add(C, A, point_neg(C, A)) is None


def test_count_f701(ex2_curve, ex2_frob):
    assert ex2_frob.order_n == 700
    assert ex2_frob.trace_t == 2
    assert ex2_frob.order_n % 25 == 0  # full rational 5-torsion


def test_count_matches_enumeration():
    for p, a4, a6 in [(13, 1, 0), (29, 1, 0), (37, 3, 5)]:
        C = Curve(PrimeField(p), a4, a6)
        assert count_points(C).order_n == len(all_points(C))


def test_count_x3_plus_x_mod5():
    C = Curve(PrimeField(5), 1, 0)
    n = count_points(C).order_n
    assert n % 4 == 0  # full 2-torsion: roots 0, +-i all rational


def test_hasse_and_lagrange():
    for p, a4, a6 in [(13, 1, 0), (701, -35, 98), (97, 2, 3)]:
        C = Curve(PrimeField(p), a4, a6)
        fd = count_points(C)
        assert (p + 1 - fd.order_n) ** 2 <= 4 * p
        for A in all_points(C)[:50]:
            assert scalar_mul(C, fd.order_n, A) is None


def test_supersingular_rejected():
    # y^2 = x^3 + 1 over F_5 has 6 points, t = 0
    C = Curve(PrimeField(5), 0, 1)
    with pytest.raises(SupersingularCurve):
        count_points(C)


def test_bsgs_agrees_with_exhaustive():
    from distmap.curve import _count_bsgs, _count_exhaustive

    for p, a4, a6 in [(10007, 3, 7), (7919, 1, 6)]:
        C = Curve(PrimeField(p), a4, a6)
        assert _count_bsgs(C) == _count_exhaustive(C)


def test_reduce_rational_mod_13():
    C = reduce_rational_curve(-3375, 121, 6750, 121, 13)
    assert (C.a4, C.a6) == (11, 4)
    # full rational 2-torsion: the cubic has all roots in F_13
    assert [x for x in range(13) if C.rhs(x) == 0] == [6, 9, 11]


def test_reduce_bad_prime():
    with pytest.raises(BadReduction):
        reduce_rational_curve(-3375, 121, 6750, 121, 11)


def test_reduce_singular():
    with pytest.raises(BadReduction):
        reduce_rational_curve(0, 1, 0, 1, 13)
