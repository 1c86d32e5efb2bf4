"""Prime field arithmetic and elementary number-theoretic primitives.

Field elements are plain ints kept in canonical form [0, p).  Moduli are
capped below 2**62 so all intermediate products fit in machine arithmetic
on any sane Python build (Python ints are arbitrary precision anyway, the
cap keeps everything desk scale).
"""

MODULUS_CAP = 1 << 62
ELL_CAP = 997


class ZeroInverse(ArithmeticError):
    """Raised when inverting 0 mod p."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2 .. 37, exact for n below
    psi_12 = 318_665_857_834_031_151_167_461 (Sorenson-Webster, 2017)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_ell(ell: int, p: int | None = None) -> None:
    """Reject an ell that is not a prime <= ELL_CAP, or that is the
    characteristic p when one is given (ValueError)."""
    if ell > ELL_CAP or not is_prime(ell):
        raise ValueError(f"ell must be a prime <= {ELL_CAP}, got {ell}")
    if ell == p:
        raise ValueError("ell must differ from the field characteristic")


class PrimeField:
    """The field F_p for an odd prime p < 2**62.

    Immutable but for the cached z^q; safe to share between threads.
    """

    def __init__(self, p: int):
        if p < 3 or p >= MODULUS_CAP or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime below 2^62, got {p}")
        self.p = p
        # the least quadratic non-residue (Tonelli-Shanks, quadratic twists);
        # set here, not cached on first use: a functools.cached_property
        # materializes the instance __dict__, and on CPython 3.11 every
        # later read of self.p then takes ~35 ns longer
        self.non_residue = next(z for z in range(2, p) if self.legendre(z) == -1)
        # p - 1 = odd_part * 2^two_adicity, for Tonelli-Shanks
        self.two_adicity = ((p - 1) & (1 - p)).bit_length() - 1
        self.odd_part = (p - 1) >> self.two_adicity
        # z^q, set at the first sqrt that needs it: no cached_property, as above
        self._z_q = None

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a mod p."""
        a %= self.p
        if a == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.p}")
        return pow(a, -1, self.p)

    def legendre(self, a: int) -> int:
        """Legendre symbol (a|p) in {-1, 0, 1} via Euler's criterion."""
        a %= self.p
        if a == 0:
            return 0
        s = pow(a, (self.p - 1) // 2, self.p)
        return -1 if s == self.p - 1 else 1

    def sqrt(self, a: int):
        """Square root of a mod p, or None if a is a non-residue.

        Tonelli-Shanks in one path for every odd p (Cohen, Alg. 1.5.1): a is
        a non-residue iff a^q has order 2^s, where p - 1 = q * 2^s, q odd.
        Returns the smaller root of the pair (r <= p - r), for determinism.
        """
        p = self.p
        a %= p
        if a == 0:
            return 0
        q, s = self.odd_part, self.two_adicity
        w = pow(a, (q - 1) // 2, p)
        r = a * w % p
        t = r * w % p
        c = None
        while t != 1:
            i = 0
            t2 = t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            if i == s:
                return None
            if c is None:
                c = self._z_q = self._z_q or pow(self.non_residue, q, p)
            b = pow(c, 1 << (s - i - 1), p)
            s = i
            c = b * b % p
            t = t * c % p
            r = r * b % p
        return min(r, p - r)
