import pytest

from distmap.field import PrimeField, ZeroInverse, is_prime


def test_rejects_composite_and_even():
    for bad in (1, 4, 9, 15, 2, 0, -7):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_inv_identity():
    assert PrimeField(701).inv(1) == 1


def test_inv_derived():
    # 4 * 10 = 40 = 1 mod 13
    assert PrimeField(13).inv(4) == 10
    assert 4 * 10 % 13 == 1


def test_inv_zero():
    with pytest.raises(ZeroInverse):
        PrimeField(701).inv(0)


def test_inv_involution_exhaustive():
    for p in (13, 101, 997):
        F = PrimeField(p)
        for a in range(1, p):
            assert F.inv(F.inv(a)) == a


def test_sqrt_perfect_square():
    assert PrimeField(13).sqrt(4) == 2


def test_sqrt_minus_one_mod_13():
    # 5^2 = 25 = 12 mod 13, and 5 < 13 - 5
    assert PrimeField(13).sqrt(12) == 5


def test_sqrt_nonresidue():
    # squares mod 5 are {0, 1, 4}
    assert PrimeField(5).sqrt(2) is None


@pytest.mark.parametrize("p", [13, 17, 101, 997])
def test_sqrt_squares_back(p):
    F = PrimeField(p)
    for a in range(p):
        r = F.sqrt(a)
        if r is not None:
            assert r * r % p == a
            assert r <= p - r


@pytest.mark.parametrize("p", [13, 101, 997])
def test_euler_criterion_agreement(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert (F.legendre(a) == 1) == (F.sqrt(a) is not None)
