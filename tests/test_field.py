import builtins
import random

import pytest

from distmap import field
from distmap.field import ELL_CAP, PrimeField, ZeroInverse, check_ell, is_prime

# sqrt is checked for every a at each 2-adic shape of p - 1: v2(p - 1) = 1
# (7, 103, 1019), 2 (13, 101, 997), 4 (17), 8 (257), 9 (7681) and 12 (12289)
SQRT_PRIMES = [7, 13, 17, 101, 103, 257, 997, 1019, 7681, 12289]


def test_rejects_composite_and_even():
    for bad in (1, 4, 9, 15, 2, 0, -7):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_rejects_strong_pseudoprimes():
    # psi_1 .. psi_11, the least strong pseudoprimes to the first 1 .. 11
    # prime bases (psi_7 = psi_8, psi_9 = psi_10 = psi_11): each passes
    # Fermat's test to base 2, and the bases 2 .. 37 reject every one
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert pow(2, n - 1, n) == 1 and not is_prime(n), n


def test_check_ell_caps_before_primality(count_calls):
    # an ell above the cap is refused before any primality test, so an
    # arbitrarily large --ell costs nothing
    calls = count_calls(field, "is_prime")
    for ell in (ELL_CAP + 2, 10**30 + 57, 2**4423 - 1):
        with pytest.raises(ValueError, match="ell must be a prime"):
            check_ell(ell)
    assert calls == []
    check_ell(ELL_CAP)
    assert calls == [(ELL_CAP,)]


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


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_sqrt_squares_back(p):
    F = PrimeField(p)
    for a in range(p):
        r = F.sqrt(a)
        if r is not None:
            assert r * r % p == a
            assert r <= p - r


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_euler_criterion_agreement(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert (F.legendre(a) == 1) == (F.sqrt(a) is not None)


# v2(p - 1) = 16, 23, 30 and 1, the last at 2^61 - 1
@pytest.mark.parametrize("p", [65537, 998244353, 3221225473, (1 << 61) - 1])
def test_sqrt_sampled_at_deep_and_large_p(p):
    F, rng = PrimeField(p), random.Random(p)
    for a in [1, p - 1, F.non_residue] + [rng.randrange(1, p) for _ in range(1500)]:
        r = F.sqrt(a)
        if pow(a, (p - 1) // 2, p) == p - 1:
            assert r is None
        else:
            assert r * r % p == a and r <= p - r


@pytest.mark.parametrize("p", [7, 1019, 13, 7681, 12289, 998244353])
def test_sqrt_op_counts(count_calls, p):
    # residuosity is read from the order of a^q (p - 1 = q * 2^s, q odd),
    # so a non-residue costs the one power a^((q-1)/2), as does a residue
    # with a^q = 1 (every residue when p = 3 mod 4); only a deeper residue
    # also powers the non-residue and its 2^k-th powers
    F = PrimeField(p)
    q = p - 1
    while q % 2 == 0:
        q //= 2
    legendre = count_calls(PrimeField, "legendre")
    pows = count_calls(builtins, "pow")
    rng = random.Random(p)
    deep = []  # (a, pow calls) of each residue with a^q != 1
    for a in [1, p - 1, F.non_residue] + [rng.randrange(1, p) for _ in range(200)]:
        pows.clear()
        r = F.sqrt(a)
        if r is None or pow(a, q, p) == 1:
            assert len(pows) == 1, a
        else:
            assert r * r % p == a
            deep.append((a, list(pows)))
    assert legendre == []
    # some residues are deep when p = 1 mod 4, none when p = 3 mod 4; the
    # full-size powers are a^((q-1)/2) and z^q, z the least non-residue;
    # z^q is powered once per field, at the first deep residue: the second
    # costs one full-size power fewer, and so does the first taken again
    assert (len(deep) > 1) == (p % 4 == 1)
    if deep:
        full = [sum(args in {(a, (q - 1) // 2, p), (F.non_residue, q, p)}
                    for args in calls) for a, calls in deep]
        assert full == [2] + [1] * (len(deep) - 1)
        a, first = deep[0]
        pows.clear()
        assert F.sqrt(a) ** 2 % p == a
        assert len(pows) == len(first) - 1
