import builtins
import itertools
import random
import re
import time
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    A31,
    A97,
    N31,
    N97,
    P31,
    P97,
    deadline,
    primes,
    random_points,
    small_curve,
    small_curves,
)
from distmap import curve
from distmap.curve import (
    BadReduction,
    CountingExhausted,
    Curve,
    FrobeniusData,
    PointNotOnCurve,
    SupersingularCurve,
    _add,
    _add_each,
    _annihilators,
    _count_bsgs,
    _count_exhaustive,
    _mul,
    _progression,
    _three_part,
    _two_part,
    count_points,
    point_add,
    point_neg,
    reduce_rational_curve,
    scalar_mul,
)
from distmap.field import PrimeField, is_prime


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


def _mul_affine(C, k, A):
    """k*A by affine double-and-add, a chain of _add: the reference for _mul."""
    if k < 0:
        k, A = -k, point_neg(C, A)
    R = None
    while k:
        if k & 1:
            R = _add(C, R, A)
        A = _add(C, A, A)
        k >>= 1
    return R


def test_mul_matches_chain_of_adds_on_small_curves():
    # every point of up to three curves per p < 60: the first with a point
    # of order 2, the first with one of order 3 and the first with neither;
    # each k with |k| <= 2*ord(A) + 1, so that the running point of the
    # loop meets A, -A and O
    with deadline(5):
        for p in primes(3, 60):
            picks = [next((sc for sc in small_curves(p) if fits(sc.order)), None)
                     for fits in (lambda n: n % 2 == 0, lambda n: n % 3 == 0,
                                  lambda n: n % 2 and n % 3)]
            for sc in filter(None, picks):
                C = sc.curve
                for A in sc.points:
                    multiples, T = [None], A  # multiples[k] = k*A, k < ord(A)
                    while T is not None:
                        multiples.append(T)
                        T = _add(C, T, A)
                    order = len(multiples)
                    for k in range(-2 * order - 1, 2 * order + 2):
                        assert _mul(C, k, A) == multiples[k % order], (C, A, k)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(5, 1 << 61),  # from p = 5 on, every curve has an affine point
    a4=st.integers(0, 1 << 62),
    a6=st.integers(0, 1 << 62),
    seed=st.integers(0, 1 << 32),
    k=st.integers(-(1 << 70), 1 << 70),
)
@example(n=(1 << 61) - 1, a4=3, a6=7, seed=0, k=(1 << 70) - 1)
def test_mul_matches_affine_reference_up_to_2_61(n, a4, a6, seed, k):
    p = next(q for q in range(n, 0, -1) if is_prime(q))
    assume((4 * a4 ** 3 + 27 * a6 ** 2) % p)
    C = Curve(PrimeField(p), a4, a6)
    A = random_points(C, seed, 1)[0]
    assert _mul(C, k, A) == _mul_affine(C, k, A)


def test_mul_one_inversion_unless_o(count_calls, ex2_curve):
    # k*A != O costs the one inversion back to affine, k*A = O none; at
    # 2^30 the multiples of #E meet O after 30 doublings
    pows = count_calls(builtins, "pow")
    C31 = Curve(PrimeField(P31), A31, 0)
    cases = [(ex2_curve, A, k) for A in small_curve(ex2_curve).points
             for k in range(-11, 12)]
    cases += [(C31, A, k) for A in random_points(C31, 31, 4)
              for k in (1, 2, N31 - 1, N31, N31 + 1, -3 * N31, 1 << 40)]
    for C, A, k in cases:
        pows.clear()
        R = _mul(C, k, A)
        assert sum(args[1] == -1 for args in pows) == (R is not None), (C, A, k)


@pytest.mark.parametrize("p,a4,a6", [(13, 1, 0), (17, 2, 3), (31, 5, 7)])
def test_group_laws_exhaustive(p, a4, a6):
    C = Curve(PrimeField(p), a4, a6)
    pts = small_curve(C).points
    for A, B in itertools.product(pts, repeat=2):
        assert point_add(C, A, B) == point_add(C, B, A)
    for A, B, D in itertools.islice(itertools.product(pts, repeat=3), 4000):
        assert point_add(C, point_add(C, A, B), D) == point_add(
            C, A, point_add(C, B, D)
        )
    for A in pts:
        assert point_add(C, A, point_neg(C, A)) is None


@pytest.mark.parametrize("p,a4,a6", [(13, 1, 0), (17, 2, 3), (31, 5, 7), (97, 2, 3)])
def test_add_each_matches_add_on_every_point(p, a4, a6):
    C = Curve(PrimeField(p), a4, a6)
    pts = small_curve(C).points
    order2 = next(A for A in pts if A is not None and A[1] == 0)
    generic = next(A for A in pts if A is not None and A[1] != 0)
    for B in (None, order2, generic):
        # pts holds O, B itself (a doubling) and -B (a sum of O)
        for As in ([], [generic], [order2], pts, pts[::-1]):
            assert _add_each(C, As, B) == [_add(C, A, B) for A in As]


def test_add_each_matches_add_at_2_40():
    C = Curve(PrimeField(1099511627689), 3, 7)  # the largest prime below 2^40
    rng = random.Random(40)
    for k in (1, 2, 33, 200):
        B, *As = random_points(C, k, k + 1)
        As += [None, B, point_neg(C, B), B, None]
        rng.shuffle(As)
        assert _add_each(C, As, B) == [_add(C, A, B) for A in As]
        assert _add_each(C, As, None) == As


def test_count_f701(ex2_curve, ex2_frob):
    assert ex2_frob.order_n == 700
    assert ex2_frob.trace_t == 2
    assert ex2_frob.order_n % 25 == 0  # full rational 5-torsion


def test_count_matches_enumeration():
    for p, a4, a6 in [(13, 1, 0), (29, 1, 0), (37, 3, 5)]:
        C = Curve(PrimeField(p), a4, a6)
        assert count_points(C).order_n == small_curve(C).order


def test_count_matches_cm_construction():
    # the two CM curves of conftest near 2^30, whose #E = N(pi - 1) is
    # known from the Frobenius pi they were built from
    for p, a4, n in ((P31, A31, N31), (P97, A97, N97)):
        assert count_points(Curve(PrimeField(p), a4, 0)).order_n == n


def test_count_x3_plus_x_mod5():
    C = Curve(PrimeField(5), 1, 0)
    n = count_points(C).order_n
    assert n % 4 == 0  # full 2-torsion: roots 0, +-i all rational


def test_hasse_and_lagrange():
    for p, a4, a6 in [(13, 1, 0), (701, -35, 98), (97, 2, 3)]:
        C = Curve(PrimeField(p), a4, a6)
        fd = count_points(C)
        assert (p + 1 - fd.order_n) ** 2 <= 4 * p
        for A in small_curve(C).points[:50]:
            assert scalar_mul(C, fd.order_n, A) is None


def test_supersingular_rejected():
    # y^2 = x^3 + 1 over F_5 has 6 points, t = 0
    C = Curve(PrimeField(5), 0, 1)
    with pytest.raises(SupersingularCurve):
        count_points(C)


def test_frobenius_data_rejects_bad_trace():
    FrobeniusData(701, 700, 2)
    with pytest.raises(ValueError, match="trace inconsistent with order"):
        FrobeniusData(701, 700, 3)
    # |t| <= 2 sqrt(q): 52^2 = 2704 <= 2804 < 53^2 = 2809
    FrobeniusData(701, 701 + 1 - 52, 52)
    for t in (53, -53):
        with pytest.raises(ValueError, match="Hasse bound violated"):
            FrobeniusData(701, 701 + 1 - t, t)


def test_bsgs_agrees_with_exhaustive():
    for p, a4, a6 in [(10007, 3, 7), (7919, 1, 6)]:
        C = Curve(PrimeField(p), a4, a6)
        assert _count_bsgs(C) == _count_exhaustive(C)


def _twist(C):
    """The quadratic twist of C by its least non-residue."""
    g = next(g for g in range(2, C.p) if C.field.legendre(g) == -1)
    return Curve(C.field, g * g * C.a4, g * g * g * C.a6)


@pytest.mark.parametrize("p", primes(230, 300))
def test_bsgs_j0_j1728_and_random_above_floor(p):
    # a4 = 0 or a6 = 0 (j = 0, 1728) is where E and E' most often have a
    # small exponent, so where one point is least likely to settle #E
    F = PrimeField(p)
    rng = random.Random(p)
    coeffs = [(0, a6) for a6 in range(1, p)] + [(a4, 0) for a4 in range(1, p)]
    coeffs += [(rng.randrange(p), rng.randrange(p)) for _ in range(20)]
    for a4, a6 in coeffs:
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
            continue
        C = Curve(F, a4, a6)
        n = _count_exhaustive(C)
        assert _count_bsgs(C) == n, (p, a4, a6)
        # the progression of #E mod 2 or 4, which count_points starts on
        assert _count_bsgs(C, _two_part(C)) == n, (p, a4, a6)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(230, (1 << 14) - 1),
    a4=st.integers(0, 1 << 14),
    a6=st.integers(0, 1 << 14),
    seed=st.integers(0, 1 << 32),
)
def test_bsgs_differential(n, a4, a6, seed):
    p = next(q for q in range(n, 0, -1) if is_prime(q))
    assume(p > 229 and (4 * a4 ** 3 + 27 * a6 ** 2) % p)
    C = Curve(PrimeField(p), a4, a6)
    n = _count_exhaustive(C)
    assert _count_bsgs(C, seed=seed) == n
    assert _count_bsgs(C, _two_part(C), seed) == n


def test_two_part_exact_on_small_curves():
    # #E = r mod s on every curve with p < 60, by the brute-force order
    classes = {(0, 4): 0, (1, 2): 0, (2, 4): 0}
    with deadline(30):
        for p in primes(3, 60):
            for sc in small_curves(p):
                r, s = _two_part(sc.curve)
                assert sc.order % s == r, sc.curve
                classes[r, s] += 1
    # three roots or one root with f'(r0) a square; no root; one root with
    # f'(r0) a non-square
    assert classes == {(0, 4): 6554, (1, 2): 5578, (2, 4): 4182}


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(230, (1 << 14) - 1),
    a4=st.integers(0, 1 << 14),
    a6=st.integers(0, 1 << 14),
)
def test_two_part_differential(n, a4, a6):
    p = next(q for q in range(n, 0, -1) if is_prime(q))
    assume(p > 229 and (4 * a4 ** 3 + 27 * a6 ** 2) % p)
    C = Curve(PrimeField(p), a4, a6)
    r, s = _two_part(C)
    n = _count_exhaustive(C)
    assert n % s == r
    if n == p + 1:  # t = 0: supersingular, out of scope
        with pytest.raises(SupersingularCurve):
            count_points(C)
    else:
        assert count_points(C).order_n == n


def test_three_part_exact_on_small_curves():
    # #E mod 3 on every curve with 5 <= p < 60, by the brute-force order
    checked = 0
    with deadline(30):
        for p in primes(5, 60):
            for sc in small_curves(p):
                assert _three_part(sc.curve) == sc.order % 3, sc.curve
                checked += 1
    assert checked == sum(p * (p - 1) for p in primes(5, 60))  # 16308


def _three_torsion_lines(p, a4, a6):
    """The roots in F_p of psi_3 = 3x^4 + 6a4x^2 + 12a6x - a4^2, by scan:
    the lines of E[3] that Frobenius fixes."""
    return sum((3 * x ** 4 + 6 * a4 * x * x + 12 * a6 * x - a4 * a4) % p == 0
               for x in range(p))


def test_three_part_differential(monkeypatch):
    # every branch of _three_part: p = 1 mod 3 with 0, 1 or 4 fixed lines,
    # p = 2 mod 3 with 2 (a root of psi_3) or none; the @example rows pin
    # one curve per branch, the drawn ones add breadth
    monkeypatch.setattr(curve, "THREE_PART_MIN", 0)
    branches = set()

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(230, 2999),
        a4=st.integers(0, 1 << 14),
        a6=st.integers(0, 1 << 14),
    )
    @example(n=241, a4=2, a6=4)  # p = 1 mod 3, no fixed line
    @example(n=241, a4=1, a6=1)  # p = 1 mod 3, one
    @example(n=241, a4=1, a6=2)  # p = 1 mod 3, four
    @example(n=233, a4=1, a6=1)  # p = 2 mod 3, two
    @example(n=233, a4=1, a6=2)  # p = 2 mod 3, none
    def check(n, a4, a6):
        p = next(q for q in range(n, 0, -1) if is_prime(q))
        assume(p > 229 and (4 * a4 ** 3 + 27 * a6 ** 2) % p)
        C = Curve(PrimeField(p), a4, a6)
        n = _count_exhaustive(C)
        assert _three_part(C) == n % 3
        branches.add((p % 3, _three_torsion_lines(p, a4, a6)))
        # count_points on the progression mod 6 or 12
        if n == p + 1:
            with pytest.raises(SupersingularCurve):
                count_points(C)
        else:
            assert count_points(C).order_n == n

    check()
    assert branches == {(1, 0), (1, 1), (1, 4), (2, 0), (2, 2)}


def test_three_part_no_case_is_a_typed_error(monkeypatch):
    # y^2 = x^3 + x + 1 over F_241 has one fixed line of E[3]; an eigenvalue
    # that is neither 1 nor -1 fits no case, and no residue is guessed
    C = Curve(PrimeField(241), 1, 1)
    assert _three_torsion_lines(241, 1, 1) == 1
    monkeypatch.setattr(PrimeField, "legendre", lambda self, a: 0)
    with pytest.raises(ValueError, match=r"\(1, 1\) fits no case"):
        _three_part(C)


P42 = 4398046511093  # the largest prime below 2^42


@pytest.mark.parametrize(
    "a6,chi,residue,n",
    [
        # chi: the discriminant's Legendre symbol, -1 iff f has one root
        (1, 1, (0, 4), 4398045472572),  # three roots
        (2, 1, (1, 2), 4398043953513),  # no root
        (3, -1, (2, 4), 4398046021590),  # one root, f'(r0) a non-square
        (15, -1, (0, 4), 4398047315792),  # one root, f'(r0) a square
    ],
)
def test_count_2_42_on_each_two_part_class(a6, chi, residue, n):
    # #E as counted over the whole Hasse interval, before the residue
    C = Curve(PrimeField(P42), 3, a6)
    assert C.field.legendre(-(4 * 3 ** 3 + 27 * a6 ** 2)) == chi
    assert _two_part(C) == residue
    assert count_points(C).order_n == n
    for A in random_points(C, a6, 5):
        assert scalar_mul(C, n, A) is None
    E2 = _twist(C)
    for A in random_points(E2, a6 + 1, 5):
        assert scalar_mul(E2, 2 * P42 + 2 - n, A) is None


def test_bsgs_below_floor_exact_or_typed():
    # below the floor BSGS may not settle #E, but it never returns a wrong one
    exhausted = 0
    with deadline(60):
        for p in primes(5, 32):
            for sc in small_curves(p):
                try:
                    assert _count_bsgs(sc.curve) == sc.order, sc.curve
                except CountingExhausted:
                    exhausted += 1
    assert exhausted > 0  # e.g. (5, 1, 0), which the floor sends to the sum


def _annihilators_by_scan(C, A, first, step, count):
    """The k < count with (first + k*step)*A = O, one addition per k."""
    X, D = _mul(C, first, A), _mul(C, step, A)
    ks = []
    for k in range(count):
        if X is None:
            ks.append(k)
        X = _add(C, X, D)
    return ks


P20 = 1048573  # the largest prime below 2^20


@pytest.mark.parametrize("n", [1, 2, 39, 40, 41, 100])
def test_progression_both_sides_of_layer_min(n):
    # one _add per point below curve._LAYER_MIN = 40, doubling layers from
    # there on: the same points either way
    ex2, C20 = Curve(PrimeField(701), -35, 98), Curve(PrimeField(P20), 3, 7)
    S5 = (224, 31)  # of order 5 on ex2
    U, V = random_points(C20, 0, 2)
    (X,) = random_points(ex2, 0, 1)
    for C, G, S in [
        (C20, U, U),  # G = S
        (C20, U, V),  # G != S
        (ex2, None, X),  # G = O
        (ex2, S5, S5),  # O at i = 4, 9, ...
        (ex2, _mul(ex2, 2, S5), S5),  # O at i = 3, 8, ...
    ]:
        want = [_add(C, G, _mul(C, i, S)) for i in range(n)]
        assert _progression(C, G, S, n) == want, (C, G, S)


# rows whose m + 1 baby steps reach curve._LAYER_MIN, so that both
# progressions of _annihilators are built in layers
_LAYERED_ROWS = [
    # the Hasse interval of a curve at 2^20, #E = 1048550
    (P20, 3, 7, None, P20 + 1 - 2047, 1, 4095),
    (P20, 3, 7, None, 1048550 - 3 * 1500, 3, 4000),
    # first*A = O
    (P20, 3, 7, None, 1048550, 1, 4095),
    (P20, 3, 7, None, 0, 7, 4000),
    # B = step*A of order 2, 7 and 25 on ex2 (#E = 700): the baby steps
    # exit early with the order of B
    (701, -35, 98, (319, 0), 1, 1, 5000),
    (701, -35, 98, None, 300, 100, 5000),
    (701, -35, 98, None, 0, 28, 5000),
    (701, -35, 98, None, 28 * 4, 28, 6000),
    # ord(B) = 90 = 2m: the last baby step, 45*B, has order 2
    (1009, 13, 1, (936, 748), 0, 1, 4000),
    (1009, 13, 1, (936, 748), 7, 1, 4000),
    # first*A = O at m = 39, the first m with m + 1 = _LAYER_MIN
    (P20, 3, 7, None, 1048550, 1, 2900),
]
# rows below it, whose baby steps are added one at a time
_SEQUENTIAL_ROWS = [
    # the early exits above at count < 3000
    (701, -35, 98, (319, 0), 1, 1, 2000),
    (701, -35, 98, None, 300, 100, 2000),
    (701, -35, 98, None, 0, 28, 2000),
    (701, -35, 98, None, 28 * 4, 28, 2500),
    # first*A = O at m = 38, the last m with m + 1 < _LAYER_MIN
    (P20, 3, 7, None, 1048550, 1, 2800),
    (P20, 3, 7, None, 0, 7, 2800),
]


@pytest.mark.parametrize(
    "p,a4,a6,A,first,step,count", _LAYERED_ROWS + _SEQUENTIAL_ROWS
)
def test_annihilators_layered_against_scan(p, a4, a6, A, first, step, count):
    layered = (p, a4, a6, A, first, step, count) in _LAYERED_ROWS
    C = Curve(PrimeField(p), a4, a6)
    A = A or random_points(C, first, 1)[0]
    # the baby steps are a _progression of m + 1 points
    assert (isqrt(count // 2) + 2 >= curve._LAYER_MIN) == layered
    k0, e = _annihilators(C, A, first, step, count)
    assert list(range(k0, count, e)) == _annihilators_by_scan(C, A, first, step, count)


# progressions that hold no annihilator of A, one per way of finding none
_EMPTY_ROWS = [
    # the baby steps exit early (B = O) and first*A is not in <B>
    (701, -35, 98, None, 1, 700, 5),
    # they exit early (B of order 2) and the one solution, k = 1, is past
    # count
    (701, -35, 98, (319, 0), 1, 1, 1),
    # the giant steps meet no baby step, sequentially and in layers
    (P20, 3, 7, None, 1048550 - 500, 1, 100),
    (P20, 3, 7, None, 1048550 - 5000, 1, 4000),
]
_NO_ANNIHILATOR = r"no k in \[0, \d+\) has \(-?\d+ \+ k\*\d+\)\*\(\d+, \d+\) = O"


@pytest.mark.parametrize("p,a4,a6,A,first,step,count", _EMPTY_ROWS)
def test_annihilators_none_is_a_typed_error(p, a4, a6, A, first, step, count):
    C = Curve(PrimeField(p), a4, a6)
    A = A or random_points(C, first, 1)[0]
    assert _annihilators_by_scan(C, A, first, step, count) == []
    with pytest.raises(ValueError, match=_NO_ANNIHILATOR):
        _annihilators(C, A, first, step, count)


@pytest.mark.parametrize("p", [233, 1009, 65521, 16777213])
def test_bsgs_wrong_residue(p):
    # a residue that misses #E: each run raises the ValueError that names
    # the progression, or returns a count (a wrong survivor, which the
    # residue's caller must rule out); never IndexError or KeyError
    F = PrimeField(p)
    rng = random.Random(p)
    raised = 0
    for _ in range(6):
        a4, a6 = rng.randrange(p), rng.randrange(p)
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
            continue
        C = Curve(F, a4, a6)
        n = count_points(C).order_n
        for r, s in ((0, 2), (1, 2), (0, 4), (1, 4), (2, 4), (3, 4)):
            if n % s == r:
                continue
            try:
                assert isinstance(_count_bsgs(C, (r, s)), int)
            except ValueError as exc:
                assert re.fullmatch(_NO_ANNIHILATOR, str(exc)), exc
                raised += 1
    assert raised > 0


@pytest.mark.parametrize("p", [P20, 1073741789, 1099511627689])
def test_count_layered_kills_points_of_e_and_twist(p):
    # the largest primes below 2^20, 2^30 and 2^40
    C = Curve(PrimeField(p), 123456789, 987654321)
    n = count_points(C).order_n
    E2 = _twist(C)
    for A in random_points(C, p, 5):
        assert scalar_mul(C, n, A) is None
    for A in random_points(E2, p + 1, 5):
        assert scalar_mul(E2, 2 * p + 2 - n, A) is None


def test_count_2_24_under_a_second():
    # the exhaustive sum took about a minute at this p
    C = Curve(PrimeField(16777213), 5, 11)
    start = time.perf_counter()
    n = count_points(C).order_n
    assert time.perf_counter() - start < 1.0
    for A in random_points(C, 0, 5):
        assert scalar_mul(C, n, A) is None
    E2 = _twist(C)
    for A in random_points(E2, 1, 5):
        assert scalar_mul(E2, 2 * C.p + 2 - n, A) is None


def test_count_2_48_kills_points_of_e_and_twist():
    p = 281474976710597  # the largest prime below 2^48
    C = Curve(PrimeField(p), 123456789, 987654321)
    n = count_points(C).order_n
    assert (p + 1 - n) ** 2 <= 4 * p
    E2 = _twist(C)
    for A in random_points(C, 0, 20):
        assert scalar_mul(C, n, A) is None
    for A in random_points(E2, 1, 20):
        assert scalar_mul(E2, 2 * p + 2 - n, A) is None


@pytest.mark.parametrize("p", [65521, 65519, 16777213, P42])
def test_count_op_counts(monkeypatch, count_calls, p):
    # Legendre calls come from the search for the least non-residue, once
    # per field (16 at p = 65521), and from the descents for #E mod 2, 4 and
    # 3; a square root reads residuosity from a^q and makes none (see
    # test_field.test_sqrt_op_counts); the character sum would make p of them
    calls = {"legendre": 0, "add": 0}
    legendre, add, add_each = PrimeField.legendre, curve._add, curve._add_each
    batched = []  # nonempty inside _add_each, which counts its own _add calls

    def counted_legendre(self, a):
        calls["legendre"] += 1
        return legendre(self, a)

    def counted_add(*args):
        calls["add"] += not batched
        return add(*args)

    def counted_add_each(C, As, B):
        calls["add"] += len(As)
        batched.append(B)
        sums = add_each(C, As, B)
        batched.pop()
        return sums

    monkeypatch.setattr(PrimeField, "legendre", counted_legendre)
    monkeypatch.setattr(curve, "_add", counted_add)
    monkeypatch.setattr(curve, "_add_each", counted_add_each)
    pows = count_calls(builtins, "pow")
    count_points(Curve(PrimeField(p), 3, 7))
    inv = sum(len(args) == 3 and args[1] == -1 for args in pows)
    assert calls["legendre"] <= 64
    # every affine point addition, batched or not: _mul's Jacobian steps
    # call no _add, so add counts the BSGS progressions alone
    assert calls["add"] <= 6 * p ** 0.25
    if p == 65521:
        # the least non-residue 17 is searched for once per field, not once
        # per square root and again for the twist (33 calls when repeated)
        assert calls["legendre"] < 33
    # the progression of #E mod 2 or 4: below curve._LAYER_MIN points one
    # _add and one inversion per step, from there on doubling layers that
    # share one inversion each, plus one inversion per _mul; at P42, above
    # curve.THREE_PART_MIN, of #E mod 6 or 12 (44 inversions and 2058
    # additions mod 2 or 4). With an inversion per double-and-add step in
    # _mul these were (61, 63), (52, 54), (72, 182) and (105, 1258)
    assert (inv, calls["add"]) == {
        65521: (35, 33),
        65519: (26, 24),
        16777213: (28, 134),
        P42: (43, 1192),
    }[p]


def test_count_twist_by_least_non_residue(monkeypatch):
    # y^2 = x^3 + x + 5 over F_65521 needs a second point, drawn from the
    # twist by the least non-residue g = 17: y^2 = x^3 + g^2 x + 5 g^3
    p, g = 65521, 17
    assert PrimeField(p).non_residue == g
    assert all(pow(z, (p - 1) // 2, p) == 1 for z in range(2, g))
    drawn_from = []
    random_point = curve._random_point

    def recorded_random_point(C, rng):
        drawn_from.append((C.a4, C.a6))
        return random_point(C, rng)

    monkeypatch.setattr(curve, "_random_point", recorded_random_point)
    assert count_points(Curve(PrimeField(p), 1, 5)).order_n == 65836
    assert drawn_from == [(1, 5), (g * g, 5 * g ** 3 % p)]


def test_counting_exhausted_is_typed(monkeypatch):
    # the identity carries no information, so no draw narrows the candidates
    monkeypatch.setattr(curve, "_random_point", lambda C, rng: None)
    # the Hasse interval at p = 251 holds 2 * 31 + 1 = 63 integers, 16 of
    # them 2 mod 4, the class _two_part gives
    assert _two_part(Curve(PrimeField(251), 1, 1)) == (2, 4)
    with pytest.raises(CountingExhausted, match="128 points left 16 candidates for #E"):
        count_points(Curve(PrimeField(251), 1, 1))


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
