import itertools
import random
from math import isqrt

import pytest

from conftest import A97, P97, combine
from distmap.classify import (
    INERT,
    NO_DISTORTION,
    RAMIFIED,
    SPLIT,
    ClassificationReport,
    InconsistentInput,
    NotImaginary,
    OrderData,
    PredicateViolated,
    _splitting,
    _squarefree_decompose,
    classify_case,
    decompose_discriminant,
    distortion_census,
    verify_theorem1,
)
from distmap.cli import main, point_str
from distmap.endo import (
    TorsionMatrix,
    char_poly_mod_ell,
    endo_matrix,
    make_catalog_endo,
    quadratic_roots_mod,
)
from distmap.field import PrimeField, is_prime
from distmap.torsion import subgroup_lines


def matrix(ell, a, b, c, d):
    return TorsionMatrix(ell, ((a, b), (c, d)))


def _scalar(M):
    """M is k*I, read from its entries alone."""
    (a, b), (c, d) = M.entries
    return b == c == 0 and a == d


def test_decompose_f701():
    assert decompose_discriminant(2, 701) == (-7, 20)
    assert 20 * 20 * -7 == 4 - 4 * 701


def test_decompose_minus_four_family():
    assert decompose_discriminant(2, 5) == (-4, 2)  # -16 = 2^2 * (-4)
    assert decompose_discriminant(-6, 13) == (-4, 2)
    assert decompose_discriminant(2, 13) == (-3, 4)  # -48 = 4^2 * (-3)


def test_decompose_rejects_nonimaginary():
    with pytest.raises(NotImaginary):
        decompose_discriminant(6, 7)


def test_decompose_fundamental_exhaustive():
    # fundamental part is squarefree (odd case) or 4*squarefree with the
    # quotient = 2,3 mod 4
    for t in range(-20, 21):
        for q in (101, 701, 997):
            if t * t >= 4 * q:
                continue
            d_K, f = decompose_discriminant(t, q)
            assert f * f * d_K == t * t - 4 * q
            OrderData(d_K, f, 1)  # validates fundamentality


def _squarefree_reference(n):
    """Brute force: the largest f with f^2 | n, and d = n / f^2."""
    f = max(k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
    return f, n // (f * f)


def test_squarefree_decompose_matches_brute_force():
    for n in range(1, 20000):
        assert _squarefree_decompose(n) == _squarefree_reference(n), n


def test_squarefree_decompose_large_cofactors():
    # n = m * L with a small part m and L one of 1, r, r*s, r^2 for primes
    # r, s above the cube root of n, which trial division never reaches
    rng = random.Random(9)
    primes = [q for q in range(10**6, 10**6 + 3000) if is_prime(q)]
    for _ in range(700):
        m = 1
        for q in (2, 3, 5, 7, 11):
            m *= q ** rng.randrange(4)
        f_m, d_m = _squarefree_reference(m)
        r, s = rng.sample(primes, 2)
        L, f_L, d_L = rng.choice([(1, 1, 1), (r, 1, r), (r * s, 1, r * s), (r * r, r, 1)])
        assert _squarefree_decompose(m * L) == (f_m * f_L, d_m * d_L)
    r = 2**31 - 1  # prime
    assert _squarefree_decompose(r * r) == (r, 1)


def test_order_data_validation():
    with pytest.raises(InconsistentInput):
        OrderData(-12, 1, 1)  # not fundamental
    with pytest.raises(InconsistentInput):
        OrderData(-7, 20, 3)  # 3 does not divide 20
    with pytest.raises(InconsistentInput):
        OrderData(7, 1, 1)
    for f_pi in (0, -4):
        with pytest.raises(InconsistentInput, match="f_pi must be positive"):
            OrderData(-7, f_pi, 1)
    od = OrderData(-7, 20, 2)
    assert od.index_O_Zpi == 10


def _is_squarefree(n):
    return all(n % (k * k) for k in range(2, isqrt(n) + 1))


def _fundamental_discriminants(lo, hi):
    """The negative fundamental discriminants in [lo, hi], by definition:
    squarefree and 1 mod 4, or 4m with m squarefree and 2 or 3 mod 4."""
    return [d for d in range(lo, min(hi, -1) + 1)
            if (d % 4 == 1 and _is_squarefree(-d))
            or (d % 4 == 0 and d // 4 % 4 in (2, 3) and _is_squarefree(-d // 4))]


def test_order_data_accepts_exactly_fundamental_discriminants():
    # every d_K = 2, 3 mod 4, and every non-fundamental d_K = 0, 1 mod 4
    # (-12, -16, -27, -28, ...), is rejected
    fundamental = set(_fundamental_discriminants(-400, -1))
    assert {-3, -4, -7, -8, -24} <= fundamental
    for d_K in range(-400, 0):
        if d_K in fundamental:
            assert OrderData(d_K, 2, 1).d_K == d_K
        else:
            with pytest.raises(InconsistentInput, match="not a fundamental discriminant"):
                OrderData(d_K, 2, 1)


def _splitting_by_roots(d_K, ell):
    """1, 0 or -1 as the minimal polynomial of the generator of O_K,
    x^2 - d_K/4 or x^2 - x + (1 - d_K)/4, has 2, 1 or 0 roots mod ell:
    the definition of ell splitting, ramifying or staying inert."""
    c1, c0 = (0, -d_K // 4) if d_K % 4 == 0 else (-1, (1 - d_K) // 4)
    return sum((x * x + c1 * x + c0) % ell == 0 for x in range(ell)) - 1


def test_splitting_matches_minimal_polynomial():
    discriminants = _fundamental_discriminants(-200, -3)
    assert len(discriminants) == 62
    for d_K in discriminants:
        for ell in filter(is_prime, range(2, 98)):
            assert _splitting(d_K, ell) == _splitting_by_roots(d_K, ell), (d_K, ell)


def test_splitting_matches_legendre():
    for d_K in _fundamental_discriminants(-200, -3):
        for ell in filter(is_prime, range(3, 98)):
            assert _splitting(d_K, ell) == PrimeField(ell).legendre(d_K), (d_K, ell)


def test_splitting_paper_values():
    assert _splitting(-7, 5) == -1  # 5 inert in Q(sqrt(-7))
    assert _splitting(-7, 2) == 1  # 2 splits
    assert _splitting(-4, 2) == 0  # 2 ramifies


def test_classify_paper_cases():
    assert classify_case(OrderData(-7, 20, 1), 5).case_tag == INERT
    assert classify_case(OrderData(-7, 20, 1), 2).case_tag == SPLIT
    assert classify_case(OrderData(-3, 4, 2), 2).case_tag == NO_DISTORTION
    assert classify_case(OrderData(-4, 2, 1), 2).case_tag == RAMIFIED


def test_classify_trichotomy():
    for d_K in (-3, -4, -7, -8, -11, -15):
        for ell in (2, 3, 5, 7):
            od = OrderData(d_K, ell, 1)
            tag = classify_case(od, ell).case_tag
            expected = {-1: INERT, 1: SPLIT, 0: RAMIFIED}[_splitting_by_roots(d_K, ell)]
            assert tag == expected


def test_classify_note_when_ell_divides_zpi_index():
    report = classify_case(OrderData(-7, 20, 1), 5)
    assert report.notes == [
        "5 divides [O : Z[pi]] = 20; classification proceeds "
        "(only ell | [O_K : O] blocks distortion maps)"
    ]


def test_classify_warns_when_ell_does_not_divide_zpi_index():
    # rational E[ell] forces pi = 1 mod ell*O, so ell | [O : Z[pi]]; the
    # warning does not depend on how ell splits (7 ramifies in Q(sqrt(-7)))
    warning = ("warning: {} does not divide [O : Z[pi]] = {}; "
               "E[ell] cannot be fully rational for this curve")
    for od, ell, tag in ((OrderData(-7, 20, 1), 7, RAMIFIED),
                         (OrderData(-7, 20, 1), 3, INERT),
                         (OrderData(-3, 2, 1), 3, RAMIFIED),
                         (OrderData(-7, 20, 2), 5, INERT)):
        report = classify_case(od, ell)
        assert report.case_tag == tag
        if od.index_O_Zpi % ell:
            assert report.notes == [warning.format(ell, od.index_O_Zpi)]
        else:
            assert len(report.notes) == 1 and "warning" not in report.notes[0]


def test_census_inert_matrix():
    M = matrix(5, 0, -1, 2, 1)
    report = distortion_census(M)
    assert report.census_distorted == 6
    assert report.eigen_subgroups == []
    assert quadratic_roots_mod(char_poly_mod_ell(M), 5) == []


def test_census_split_matrix():
    report = distortion_census(matrix(2, 0, 0, 0, 1))
    assert report.census_distorted == 1
    assert sorted(report.eigen_subgroups) == [(0, 1), (1, 0)]


def test_census_unipotent():
    report = distortion_census(matrix(2, 1, 1, 0, 1))
    assert report.census_distorted == 2
    assert report.eigen_subgroups == [(1, 0)]


def test_census_scalar():
    report = distortion_census(matrix(5, 3, 0, 0, 3))
    assert report.census_distorted == 0


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_census_trichotomy_all_nonscalar_matrices(ell):
    # a non-scalar 2x2 matrix has 0, 1, or 2 eigenlines
    for a, b, c, d in itertools.product(range(ell), repeat=4):
        M = matrix(ell, a, b, c, d)
        report = distortion_census(M)
        assert 0 <= report.census_distorted <= ell + 1
        if _scalar(M):
            assert report.census_distorted == 0
            continue
        assert report.census_distorted in (ell - 1, ell, ell + 1)
        roots = quadratic_roots_mod(char_poly_mod_ell(M), ell)
        if report.census_distorted == ell + 1:
            assert roots == []
        elif report.census_distorted == ell - 1:
            assert len(roots) == 2
        else:
            assert len(roots) == 1


def _census_by_scan(M):
    """The census by scanning all ell + 1 lines for eigenvectors and all
    of Z/ell for roots: the reference for the closed form."""
    ell = M.ell
    (a, b), (c, d) = M.entries
    # (x, y) is an eigenline iff it is parallel to M(x, y)
    eigen = [(x, y) for x, y in subgroup_lines(ell)
             if (x * (c * x + d * y) - y * (a * x + b * y)) % ell == 0]
    roots = [r for r in range(ell)
             if (r * r - M.trace() * r + M.det()) % ell == 0]
    if _scalar(M):
        tag = NO_DISTORTION
    elif not roots:
        tag = INERT
    elif len(roots) == 2:
        tag = SPLIT
    else:
        tag = RAMIFIED
    return tag, ell + 1 - len(eigen), eigen


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_census_closed_form_matches_scan(ell):
    # every 2x2 matrix mod ell: 3,123 in all
    for a, b, c, d in itertools.product(range(ell), repeat=4):
        M = matrix(ell, a, b, c, d)
        report = distortion_census(M)
        got = (report.case_tag, report.census_distorted, report.eigen_subgroups)
        assert got == _census_by_scan(M), M


def test_census_listing_ell97(capsys, basis97):
    # the CLI census at ell = 97, its generators from one layered
    # progression, against a listing built here: each generator by two
    # scalar multiplications, each mark from the scan above
    B = basis97  # seed 0, the CLI's default
    tag, distorted, eigen = _census_by_scan(
        endo_matrix(make_catalog_endo("sqrt_minus_one", B.curve), B))
    want = [f"P={point_str(B.P)}", f"Q={point_str(B.Q)}"]
    want += [f"subgroup={point_str(combine(B, x, y))}:"
             + ("eigen" if (x, y) in eigen else "distorted")
             for x, y in subgroup_lines(97)]
    want += [f"distorted={distorted}", f"case={tag}"]
    code = main(["census", "--p", str(P97), "--a4", str(A97), "--a6", "0",
                 "--ell", "97", "--phi", "sqrt_minus_one"])
    assert capsys.readouterr().out.splitlines() == want
    assert (code, tag, distorted) == (0, SPLIT, 96)


def _symbol(d, ell):
    """(d | ell) for prime ell: the Kronecker symbol by d mod 8 for ell = 2,
    Euler's criterion otherwise."""
    if ell == 2:
        return (0, 1, 0, -1, 0, -1, 0, 1)[d % 8]
    r = pow(d, (ell - 1) // 2, ell)
    return -1 if r == ell - 1 else r


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 13, 97])
def test_quadratic_roots_match_scan(ell):
    # X^2 + c1*X + c0 has 1 + (c1^2 - 4*c0 | ell) roots mod ell: the roots
    # returned are that many, distinct, sorted, and each a root
    for c1, c0 in itertools.product(range(ell), repeat=2):
        roots = quadratic_roots_mod((1, c1, c0), ell)
        assert len(roots) == 1 + _symbol(c1 * c1 - 4 * c0, ell), (c1, c0)
        assert roots == sorted(set(roots)) and set(roots) <= set(range(ell))
        assert all((x * x + c1 * x + c0) % ell == 0 for x in roots), (c1, c0)


def test_quadratic_roots_lower_degree():
    # the leading coefficient counts: a linear polynomial has its one root,
    # a nonzero constant none, and the zero polynomial all of Z/ell
    assert quadratic_roots_mod((0, 3, 1), 7) == [2]  # 3x + 1 = 0 mod 7
    assert quadratic_roots_mod((7, 0, 5), 7) == []
    assert quadratic_roots_mod((0, 7, -14), 7) == list(range(7))
    assert quadratic_roots_mod((2, 0, -8), 11) == [2, 9]  # 2(x^2 - 4)


def test_verify_theorem1_paper_configurations(basis5, basis2, alpha, ex2_curve):
    od_ex2 = OrderData(-7, 20, 1)
    assert verify_theorem1(od_ex2, endo_matrix(alpha, basis5), 5).census_distorted == 6
    assert verify_theorem1(od_ex2, endo_matrix(alpha, basis2), 2).census_distorted == 1
    od_ex1 = OrderData(-4, 2, 1)
    assert verify_theorem1(od_ex1, matrix(2, 1, 1, 0, 1), 2).census_distorted == 2
    od_ex4 = OrderData(-3, 4, 2)
    assert verify_theorem1(od_ex4, matrix(2, 1, 0, 0, 1), 2).census_distorted == 0


def test_verify_theorem1_mismatch():
    # a scalar matrix where distortion is predicted
    with pytest.raises(PredicateViolated):
        verify_theorem1(OrderData(-7, 20, 1), matrix(5, 3, 0, 0, 3), 5)
    # a non-scalar matrix where no distortion is predicted
    with pytest.raises(PredicateViolated):
        verify_theorem1(OrderData(-3, 4, 2), matrix(2, 0, 0, 0, 1), 2)
    # a non-scalar matrix of the wrong case: Split (two eigenlines,
    # census 4) where Inert (census 6) is predicted
    with pytest.raises(PredicateViolated, match="Split.*Inert"):
        verify_theorem1(OrderData(-7, 20, 1), matrix(5, 1, 0, 0, 2), 5)


def test_predicted_counts():
    assert ClassificationReport(INERT, 5).predicted_count() == 6
    assert ClassificationReport(SPLIT, 5).predicted_count() == 4
    assert ClassificationReport(RAMIFIED, 5).predicted_count() == 5
    assert ClassificationReport(NO_DISTORTION, 5).predicted_count() == 0
