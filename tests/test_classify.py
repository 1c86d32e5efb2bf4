import itertools
import random
from math import isqrt

import pytest

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
    _squarefree_decompose,
    classify_case,
    decompose_discriminant,
    distortion_census,
    verify_theorem1,
)
from distmap.endo import TorsionMatrix, char_poly_mod_ell, quadratic_roots_mod
from distmap.field import is_prime, kronecker
from distmap.torsion import subgroup_lines


def matrix(ell, a, b, c, d):
    return TorsionMatrix(ell, ((a, b), (c, d)))


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
    od = OrderData(-7, 20, 2)
    assert od.index_O_Zpi == 10


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
            expected = {-1: INERT, 1: SPLIT, 0: RAMIFIED}[kronecker(d_K, ell)]
            assert tag == expected


def test_classify_note_when_ell_divides_zpi_index():
    report = classify_case(OrderData(-7, 20, 1), 5)
    assert any("[O : Z[pi]]" in n for n in report.notes)


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
        if M.is_scalar():
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
    if M.is_scalar():
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


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 13, 97])
def test_quadratic_roots_match_scan(ell):
    for c1, c0 in itertools.product(range(ell), repeat=2):
        scan = [x for x in range(ell) if (x * x + c1 * x + c0) % ell == 0]
        assert quadratic_roots_mod((1, c1, c0), ell) == scan, (c1, c0)


def test_verify_theorem1_paper_configurations(basis5, basis2, alpha, ex2_curve):
    from distmap.endo import endo_matrix, make_catalog_endo

    od_ex2 = OrderData(-7, 20, 1)
    assert verify_theorem1(od_ex2, endo_matrix(alpha, basis5), 5).census_distorted == 6
    assert verify_theorem1(od_ex2, endo_matrix(alpha, basis2), 2).census_distorted == 1
    od_ex1 = OrderData(-4, 2, 1)
    assert verify_theorem1(od_ex1, matrix(2, 1, 1, 0, 1), 2).census_distorted == 2
    od_ex4 = OrderData(-3, 4, 2)
    assert verify_theorem1(od_ex4, matrix(2, 1, 0, 0, 1), 2).census_distorted == 0


def test_verify_theorem1_mismatch():
    with pytest.raises(PredicateViolated):
        verify_theorem1(OrderData(-7, 20, 1), matrix(5, 3, 0, 0, 3), 5)
    with pytest.raises(PredicateViolated):
        verify_theorem1(OrderData(-3, 4, 2), matrix(2, 0, 0, 0, 1), 2)


def test_predicted_counts():
    assert ClassificationReport(INERT, 5).predicted_count() == 6
    assert ClassificationReport(SPLIT, 5).predicted_count() == 4
    assert ClassificationReport(RAMIFIED, 5).predicted_count() == 5
    assert ClassificationReport(NO_DISTORTION, 5).predicted_count() == 0
