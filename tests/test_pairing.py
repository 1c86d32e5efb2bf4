import itertools
import random

import pytest

from distmap.curve import (
    Curve,
    PointNotOnCurve,
    point_add,
    point_neg,
    scalar_mul,
)
from distmap.field import PrimeField
from distmap.pairing import (
    DivisorCollision,
    NotTorsion,
    PairingValue,
    _aux_points,
    _miller_at_point,
    miller_eval,
    weil_pairing,
)


def torsion_points(C, B, ell):
    pts = {}
    for a, b in itertools.product(range(ell), repeat=2):
        pts[(a, b)] = point_add(
            C, scalar_mul(C, a, B.P), scalar_mul(C, b, B.Q)
        )
    return pts


def test_pairing_value_validates(ex2_curve):
    PairingValue(ex2_curve, 5, 89)
    with pytest.raises(ValueError):
        PairingValue(ex2_curve, 5, 7)
    with pytest.raises(ValueError):
        PairingValue(ex2_curve, 5, 0)


def test_miller_order2_nonzero(ex2_curve):
    # shortest loop: the Miller function of a 2-torsion point is the
    # vertical line through it
    A = (319, 0)
    v = miller_eval(ex2_curve, 2, A, ((224, 31), (573, 450)))
    assert v != 0
    expected = (224 - 319) * ex2_curve.field.inv(573 - 319) % 701
    assert v == expected


def test_miller_collision(ex2_curve):
    A = (224, 31)
    with pytest.raises(DivisorCollision):
        miller_eval(ex2_curve, 5, A, (A, (573, 450)))


def test_fifth_root_of_unity(basis5, ex2_curve):
    e = weil_pairing(ex2_curve, 5, basis5.P, basis5.Q)
    assert pow(e.value, 5, 701) == 1
    assert e.value != 1


def test_alternating(basis5, ex2_curve):
    assert weil_pairing(ex2_curve, 5, basis5.P, basis5.P).value == 1


def test_paper_value_464(ex2_curve):
    # pinned convention anchor
    assert weil_pairing(ex2_curve, 5, (224, 31), (173, 194)).value == 464


def test_second_pairing_is_inverse_of_89(ex2_curve):
    # The source text prints e_5(Q, [alpha]Q) = 89, but with
    # [alpha]P = 2Q and [alpha]Q = Q - P both printed values cannot hold
    # under one bilinear pairing: e(P, 2Q) = e(P,Q)^2 and e(Q, Q-P) = e(P,Q),
    # and 89^2 = 210 != 464 mod 701.  Under the 464-anchored convention the
    # second value is forced to 89^-1 = 638.
    v = weil_pairing(ex2_curve, 5, (573, 450), (463, 495)).value
    assert v == 638
    assert v * 89 % 701 == 1


def test_two_torsion_pairing(ex2_curve):
    assert weil_pairing(ex2_curve, 2, (319, 0), (389, 0)).value == 700


def test_not_torsion_rejected(ex2_curve):
    with pytest.raises(NotTorsion):
        weil_pairing(ex2_curve, 5, (319, 0), (224, 31))


def test_identity_argument(ex2_curve):
    assert weil_pairing(ex2_curve, 5, None, (224, 31)).value == 1


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_bilinear_alternating_exhaustive(ell):
    from distmap import TorsionContext, count_points, find_torsion_basis

    if ell == 3:
        # y^2 = x^3 + 4 over F_31: order 36, t = -4 = 2 mod 3
        C = Curve(PrimeField(31), 0, 4)
    else:
        C = Curve(PrimeField(701), -35, 98)
    B = find_torsion_basis(TorsionContext(ell, C, count_points(C)))
    pts = torsion_points(C, B, ell)
    z = weil_pairing(C, ell, B.P, B.Q).value
    assert pow(z, ell, C.p) == 1 and z != 1  # nondegenerate, exact order ell
    for (a, b), (c, d) in itertools.product(pts, repeat=2):
        v = weil_pairing(C, ell, pts[(a, b)], pts[(c, d)]).value
        assert v == pow(z, (a * d - b * c) % ell, C.p)
        if (a, b) == (c, d):
            assert v == 1


def test_tiny_curve_two_torsion_fallback():
    # F_5 curve y^2 = x^3 + x has exactly 4 points, all 2-torsion: no
    # auxiliary offset point exists and the forced E[2] values apply
    C = Curve(PrimeField(5), 1, 0)
    assert weil_pairing(C, 2, (0, 0), (2, 0)).value == 4
    assert weil_pairing(C, 2, (0, 0), (0, 0)).value == 1


def _line_value_ref(C, U, V, X):
    """The line through U and V at X, as a separate pass (reference)."""
    p = C.p
    x, y = X
    if U is None and V is None:
        return 1
    if U is None:
        return (x - V[0]) % p
    if V is None:
        return (x - U[0]) % p
    x1, y1 = U
    x2, y2 = V
    if x1 == x2 and (y1 + y2) % p == 0:
        return (x - x1) % p
    if U == V:
        lam = (3 * x1 * x1 + C.a4) * C.field.inv(2 * y1) % p
    else:
        lam = (y2 - y1) * C.field.inv(x2 - x1) % p
    return (y - y1 - lam * (x - x1)) % p


def _vertical_value_ref(C, U, X):
    if U is None:
        return 1
    return (X[0] - U[0]) % C.p


def _miller_ref(C, ell, A, X):
    """Miller's loop in two passes per step: line value, then point_add,
    then the vertical through the sum."""
    if X is None:
        raise DivisorCollision("identity")
    p = C.p
    T = A
    num, den = 1, 1
    for bit in bin(ell)[3:]:
        l = _line_value_ref(C, T, T, X)
        T = point_add(C, T, T)
        num = num * num % p * l % p
        den = den * den % p * _vertical_value_ref(C, T, X) % p
        if bit == "1":
            l = _line_value_ref(C, T, A, X)
            T = point_add(C, T, A)
            num = num * l % p
            den = den * _vertical_value_ref(C, T, X) % p
    if num == 0 or den == 0:
        raise DivisorCollision("vanished")
    return num * C.field.inv(den) % p


def _weil_ref(C, ell, A, B):
    """weil_pairing built on _miller_ref (same offsets, same orientation)."""
    if A is None or B is None:
        return 1
    p = C.p
    for S in _aux_points(C):
        try:
            BS = point_add(C, B, S)
            AmS = point_add(C, A, point_neg(C, S))
            if BS is None or AmS is None:
                raise DivisorCollision("degenerate offset")
            fa = _miller_ref(C, ell, A, BS) * C.field.inv(_miller_ref(C, ell, A, S))
            nS = point_neg(C, S)
            fb = _miller_ref(C, ell, B, AmS) * C.field.inv(_miller_ref(C, ell, B, nS))
            return fb * C.field.inv(fa) % p
        except DivisorCollision:
            continue
    raise AssertionError("no offset")


def _miller_or_collision(miller, C, ell, A, X):
    try:
        return miller(C, ell, A, X)
    except DivisorCollision:
        return "collision"


def test_fused_miller_step_matches_two_pass(ex2_curve):
    C = ex2_curve
    points = [None]
    for x in range(C.p):
        y = C.field.sqrt(C.rhs(x))
        if y is not None:
            points += [(x, y)] if y == 0 else [(x, y), (x, C.p - y)]
    torsion = {
        ell: [A for A in points if scalar_mul(C, ell, A) is None]
        for ell in (2, 5)
    }
    assert (len(torsion[2]), len(torsion[5])) == (4, 25)
    As = torsion[2] + torsion[5][1:]  # E[2] and E[5] share only O
    X_set = points[1:41] + As
    evaluations = collisions = 0
    # every loop length on every argument, so the steps also meet sums
    # that are not multiples of an order-ell point
    for ell, A, X in itertools.product((2, 5), As, X_set):
        got = _miller_or_collision(_miller_at_point, C, ell, A, X)
        assert got == _miller_or_collision(_miller_ref, C, ell, A, X)
        evaluations += 1
        collisions += got == "collision"
    assert evaluations == 2 * 28 * 68
    assert 0 < collisions < evaluations


def test_weil_matches_two_pass_ell31(basis31):
    B, C = basis31, basis31.curve
    rng = random.Random(31)
    for _ in range(300):
        U, V = (B.combine(rng.randrange(31), rng.randrange(31)) for _ in "UV")
        assert weil_pairing(C, 31, U, V).value == _weil_ref(C, 31, U, V)


def test_public_pairing_entries_validate(ex2_curve):
    P = (224, 31)
    with pytest.raises(PointNotOnCurve):
        weil_pairing(ex2_curve, 5, (1, 1), P)
    with pytest.raises(PointNotOnCurve):
        weil_pairing(ex2_curve, 5, P, (1, 1))
    with pytest.raises(PointNotOnCurve):
        miller_eval(ex2_curve, 5, (1, 1), ((573, 450), (463, 495)))
    with pytest.raises(NotTorsion):
        weil_pairing(ex2_curve, 5, P, (319, 0))
