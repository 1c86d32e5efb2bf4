import itertools
import random
import re

import pytest

from conftest import (
    combine,
    deadline,
    random_points,
    small_curve,
    small_curves,
    torsion_points,
)
from distmap import TorsionContext, count_points, find_torsion_basis, pairing
from distmap.curve import (
    Curve,
    PointNotOnCurve,
    _add,
    _mul,
    point_add,
    point_neg,
)
from distmap.field import PrimeField
from distmap.pairing import (
    NotInTorsion,
    _read,
    _tate,
    _walk,
    _weil,
    weil_pairing,
)


def _value(C, f):
    """The fraction (num, den) that _read returns, as one field element."""
    return None if f is None else f[0] * pow(f[1], -1, C.p) % C.p


def _miller(C, ell, A, X):
    """f_{ell,A}(X): A walked, then read at X."""
    return _value(C, _read(C, _walk(C, ell, A), X))


def test_pairing_value_validates(monkeypatch, ex2_curve):
    # weil_pairing returns _weil's value only if it is a 5th root of unity
    for value in (7, 0):
        monkeypatch.setattr(pairing, "_weil", lambda *args: value)
        with pytest.raises(ValueError, match=f"{value} is not an 5-th root"):
            weil_pairing(ex2_curve, 5, (224, 31), (573, 450))


def test_miller_order2_nonzero(ex2_curve):
    # shortest loop: the Miller function of a 2-torsion point is the
    # vertical line through it
    A = (319, 0)
    assert _miller(ex2_curve, 2, A, (224, 31)) == (224 - 319) % 701
    assert _miller(ex2_curve, 2, A, (573, 450)) == 573 - 319


def test_miller_collision(ex2_curve):
    # the walk's last vertical passes through A itself
    A = (224, 31)
    assert _miller(ex2_curve, 5, A, A) is None
    assert _miller(ex2_curve, 5, A, (573, 450)) is not None


def test_fifth_root_of_unity(basis5, ex2_curve):
    e = weil_pairing(ex2_curve, 5, basis5.P, basis5.Q)
    assert pow(e, 5, 701) == 1
    assert e != 1


def test_alternating(basis5, ex2_curve):
    assert weil_pairing(ex2_curve, 5, basis5.P, basis5.P) == 1


def test_paper_value_464(ex2_curve):
    # pinned convention anchor
    assert weil_pairing(ex2_curve, 5, (224, 31), (173, 194)) == 464


def test_second_pairing_is_inverse_of_89(ex2_curve):
    # The source text prints e_5(Q, [alpha]Q) = 89, but with
    # [alpha]P = 2Q and [alpha]Q = Q - P both printed values cannot hold
    # under one bilinear pairing: e(P, 2Q) = e(P,Q)^2 and e(Q, Q-P) = e(P,Q),
    # and 89^2 = 210 != 464 mod 701.  Under the 464-anchored convention the
    # second value is forced to 89^-1 = 638.
    v = weil_pairing(ex2_curve, 5, (573, 450), (463, 495))
    assert v == 638
    assert v * 89 % 701 == 1


def test_two_torsion_pairing(ex2_curve):
    assert weil_pairing(ex2_curve, 2, (319, 0), (389, 0)) == 700


def test_not_torsion_rejected(ex2_curve):
    with pytest.raises(NotInTorsion):
        weil_pairing(ex2_curve, 5, (319, 0), (224, 31))


def test_identity_argument(ex2_curve):
    assert weil_pairing(ex2_curve, 5, None, (224, 31)) == 1


@pytest.mark.parametrize("A", [(319, 0), (693, 229)])
def test_miller_loop_checks_its_base(ex2_curve, A):
    # (319, 0) has order 2: the walk meets O at its first doubling, where
    # a walk without the check would step from O.  (693, 229) has order 7:
    # the walk ends at 5A != O, where the value read would be wrong
    C, X = ex2_curve, (573, 450)
    message = re.escape(f"{A} does not have exact order 5")
    for pair in (lambda: _walk(C, 5, A),
                 lambda: _weil(C, 5, A, X),
                 lambda: _weil(C, 5, X, A),
                 lambda: _tate(C, 5, A, X)):
        with pytest.raises(NotInTorsion, match=message):
            pair()


def test_public_pairing_checks_argument_beside_identity(ex2_curve):
    # with O in one slot _weil walks nothing, so weil_pairing walks the
    # other argument: (319, 0) has order 2, (693, 229) order 7
    for A in ((319, 0), (693, 229)):
        message = re.escape(f"{A} does not have exact order 5")
        for pair in ((None, A), (A, None)):
            with pytest.raises(NotInTorsion, match=message):
                weil_pairing(ex2_curve, 5, *pair)
    assert weil_pairing(ex2_curve, 5, None, None) == 1


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_bilinear_alternating_exhaustive(ell):
    if ell == 3:
        # y^2 = x^3 + 4 over F_31: order 36, t = -4 = 2 mod 3
        C = Curve(PrimeField(31), 0, 4)
    else:
        C = Curve(PrimeField(701), -35, 98)
    B = find_torsion_basis(TorsionContext(ell, C, count_points(C)))
    pts = torsion_points(B)
    z = weil_pairing(C, ell, B.P, B.Q)
    assert pow(z, ell, C.p) == 1 and z != 1  # nondegenerate, exact order ell
    for (a, b), (c, d) in itertools.product(pts, repeat=2):
        v = weil_pairing(C, ell, pts[(a, b)], pts[(c, d)])
        assert v == pow(z, (a * d - b * c) % ell, C.p)
        if (a, b) == (c, d):
            assert v == 1


def test_tiny_curve_two_torsion_fallback():
    # F_5 curve y^2 = x^3 + x has exactly 4 points, all 2-torsion: no
    # auxiliary offset point exists and the forced E[2] values apply
    C = Curve(PrimeField(5), 1, 0)
    assert weil_pairing(C, 2, (0, 0), (2, 0)) == 4
    assert weil_pairing(C, 2, (0, 0), (0, 0)) == 1


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
    then the vertical through the sum; None when a line vanishes at X."""
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
        return None
    return num * C.field.inv(den) % p


def _aux_points(C, limit=16):
    """The offset points S of the reference pairing: the points over
    x = 0, 1, ..., both square roots each, until 16 have been given."""
    found = 0
    for x in range(C.p):
        if found >= limit:
            return
        y = C.field.sqrt(C.rhs(x))
        if y is not None:
            yield (x, y)
            found += 1
            if y != 0:
                yield (x, C.p - y)
                found += 1


def _weil_ref(C, ell, A, B):
    """The Weil pairing from offset divisors, built on _miller_ref:
    e(A, B) = [f_B(A - S) / f_B(-S)] / [f_A(B + S) / f_A(S)] for the first
    offset S at which no Miller line vanishes, and on E[2] the forced
    values when no offset is left."""
    if A is None or B is None:
        return 1
    p = C.p
    for S in _aux_points(C):
        nS = point_neg(C, S)
        BS = point_add(C, B, S)
        AmS = point_add(C, A, nS)
        if BS is None or AmS is None:
            continue
        f = [_miller_ref(C, ell, A, BS), _miller_ref(C, ell, A, S),
             _miller_ref(C, ell, B, AmS), _miller_ref(C, ell, B, nS)]
        if None in f:
            continue
        fa = f[0] * C.field.inv(f[1])
        fb = f[2] * C.field.inv(f[3])
        return fb * C.field.inv(fa) % p
    if ell == 2:
        return 1 if A == B else p - 1
    raise AssertionError("no offset")


def test_fused_miller_step_matches_two_pass(ex2_curve):
    C, sc = ex2_curve, small_curve(ex2_curve)
    points = sc.points
    torsion = {ell: sc.torsion(ell) for ell in (2, 5)}
    assert (len(torsion[2]), len(torsion[5])) == (4, 25)
    # Miller's walk takes A of exact order ell (torsion[ell][0] is O); one
    # walk per base is read at every point, so every ordered pair of base
    # and point of E[5] is compared
    loops = [(ell, A) for ell in (2, 5) for A in torsion[ell][1:]]
    X_set = points[1:41] + [A for _, A in loops]  # affine evaluation points only
    evaluations = collisions = 0
    for ell, A in loops:
        walk = _walk(C, ell, A)
        for X in X_set:
            got = _value(C, _read(C, walk, X))
            assert got == _miller_ref(C, ell, A, X)
            evaluations += 1
            collisions += got is None
    assert evaluations == (3 + 24) * 67
    assert 0 < collisions < evaluations


def test_read_matches_two_pass_ell31(basis31):
    # sampled bases of E[31], each walked once and read at sampled points
    # of E[31], at one multiple of the base and at 20 points outside E[31],
    # against the two-pass loop
    B, C = basis31, basis31.curve
    rng = random.Random(131)
    outside = random_points(C, 0, 20)
    evaluations = collisions = 0
    for _ in range(20):
        A = combine(B, rng.randrange(31), rng.randrange(1, 31))
        walk = _walk(C, 31, A)
        X_set = [combine(B, rng.randrange(31), rng.randrange(31)) for _ in range(20)]
        X_set += [_mul(C, rng.randrange(1, 31), A)] + outside
        for X in X_set:
            if X is None:
                continue
            got = _value(C, _read(C, walk, X))
            assert got == _miller_ref(C, 31, A, X)
            evaluations += 1
            collisions += got is None
    # 20 bases at 41 points less the O among them; a read at a multiple
    # of A vanishes only where the walk's lines do
    assert (evaluations, collisions) == (819, 15)


def test_weil_matches_two_pass_ell31(basis31):
    B, C = basis31, basis31.curve
    rng = random.Random(31)
    for _ in range(300):
        U, V = (combine(B, rng.randrange(31), rng.randrange(31)) for _ in "UV")
        assert weil_pairing(C, 31, U, V) == _weil_ref(C, 31, U, V)


def test_public_pairing_entries_validate(ex2_curve):
    P = (224, 31)
    with pytest.raises(PointNotOnCurve):
        weil_pairing(ex2_curve, 5, (1, 1), P)
    with pytest.raises(PointNotOnCurve):
        weil_pairing(ex2_curve, 5, P, (1, 1))
    with pytest.raises(NotInTorsion):
        weil_pairing(ex2_curve, 5, P, (319, 0))


@pytest.mark.parametrize("ell", [2, 5, 31])
def test_two_miller_loops_per_pairing(count_calls, ell, basis5, basis31):
    # one walk per argument, each read once at the other argument; a walk
    # handed in is read, not walked again
    if ell == 2:
        C, A, B = basis5.curve, (319, 0), (389, 0)
    else:
        basis = basis5 if ell == 5 else basis31
        C, A, B = basis.curve, basis.P, basis.Q
    walks, reads = count_calls(pairing, "_walk"), count_calls(pairing, "_read")
    e = _weil(C, ell, A, B)
    assert e != 1
    assert (len(walks), len(reads)) == (2, 2)
    walk = _walk(C, ell, A)
    walks.clear()
    reads.clear()
    assert _weil(C, ell, A, B, walk) == e
    assert (len(walks), len(reads)) == (1, 2)


def _small_curves(ell, primes):
    """Every ordinary curve over F_p, p in primes, whose E[ell] is rational."""
    return [sc for p in primes for sc in small_curves(p)
            if sc.ordinary and sc.rational(ell)]


@pytest.mark.parametrize("ell, primes, n_curves", [
    (2, (5, 7, 11, 13, 17, 19, 23, 29), 288),
    (3, (7, 13, 19, 31), 53),
])
def test_weil_matches_offset_pairing_exhaustive(ell, primes, n_curves):
    # the offset-divisor construction (four Miller loops per offset, an
    # offset search and the forced E[2] values) as the reference for the
    # two-loop pairing, on every ordered pair of E[ell]
    curves = pairs = 0
    with deadline(60):
        for sc in _small_curves(ell, primes):
            C, torsion = sc.curve, sc.torsion(ell)
            curves += 1
            for A, B in itertools.product(torsion, repeat=2):
                assert _weil(C, ell, A, B) == _weil_ref(C, ell, A, B)
                pairs += 1
    assert (curves, pairs) == (n_curves, n_curves * ell ** 4)


def _tate_by_divisor(C, ell, A, X, offsets):
    """t(A, X) from its definition, f_A((X + R) - (R))^((p-1)/ell), at the
    first offset R that keeps the divisor off the zeros and poles of f_A
    (a degree-0 divisor, so the normalization of f_A plays no part); None
    when no offset does."""
    p = C.p
    for R in offsets:
        XR = _add(C, X, R)
        num = None if XR is None else _miller(C, ell, A, XR)
        den = _miller(C, ell, A, R)
        if num is not None and den is not None:
            return pow(num * pow(den, -1, p), (p - 1) // ell, p)
    return None


def test_tate_pinned_value_ex2(ex2_curve):
    # 638 is what the divisor definition gives, and bilinearity in both
    # arguments carries it to every pair of <A> x <X>
    C, A, X = ex2_curve, (224, 31), (173, 194)
    assert _tate(C, 5, A, X) == 638
    assert _tate_by_divisor(C, 5, A, X, small_curve(C).lifts[:4]) == 638
    for a, b in itertools.product(range(5), repeat=2):
        assert _tate(C, 5, _mul(C, a, A), _mul(C, b, X)) == pow(638, a * b, 701)


@pytest.mark.parametrize("ell", [5, 31])
def test_tate_bilinear(ell, basis5, basis31):
    B = basis5 if ell == 5 else basis31
    C, p = B.curve, B.curve.p
    rng = random.Random(ell)
    checked = 0
    while checked < 20:
        a1, b1, a2, b2 = (rng.randrange(ell) for _ in range(4))
        if (a1 * b2 - a2 * b1) % ell == 0:
            continue  # keep X outside <A>
        A, X = combine(B, a1, b1), combine(B, a2, b2)
        t = _tate(C, ell, A, X)
        assert pow(t, ell, p) == 1
        a, b = rng.randrange(ell), rng.randrange(ell)
        assert _tate(C, ell, _mul(C, a, A), _mul(C, b, X)) == pow(t, a * b, p)
        checked += 1
    # the pairing is not trivial on the basis itself
    assert _tate(C, ell, B.P, B.Q) != 1 or _tate(C, ell, B.Q, B.P) != 1


def test_tate_identity_argument(ex2_curve):
    A, X = (224, 31), (173, 194)
    assert _tate(ex2_curve, 5, None, X) == 1
    assert _tate(ex2_curve, 5, A, None) == 1
    assert _tate(ex2_curve, 5, None, None) == 1


def test_tate_refuses_point_of_own_line(ex2_curve):
    # f_A has its zeros and poles on <A>: the point-wise reading is
    # undefined there
    A = (224, 31)
    with pytest.raises(ValueError, match="lies in"):
        _tate(ex2_curve, 5, A, _mul(ex2_curve, 2, A))


@pytest.mark.parametrize("ell, primes, counts", [
    (2, (5, 7, 11, 13, 17, 19, 23, 29), (288, 2580, 857)),
    (3, (7, 13, 19, 31), (53, 2950, 1758)),
])
def test_tate_matches_divisor_definition_exhaustive(ell, primes, counts):
    # f_A read at the point X against f_A read at (X + R) - (R), on every
    # ordered pair A != O, X outside <A> of E[ell] for which some affine R
    # keeps the divisor off <A>
    curves = pairs = nontrivial = 0
    with deadline(60):
        for sc in _small_curves(ell, primes):
            C, torsion = sc.curve, sc.torsion(ell)
            curves += 1
            for A, X in itertools.product(torsion, repeat=2):
                if A is None or X in {_mul(C, k, A) for k in range(1, ell)}:
                    continue
                ref = _tate_by_divisor(C, ell, A, X, sc.lifts)
                if ref is not None:
                    assert _tate(C, ell, A, X) == ref
                    pairs += 1
                    nontrivial += ref != 1
    assert (curves, pairs, nontrivial) == counts
