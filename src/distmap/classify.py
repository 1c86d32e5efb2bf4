"""Existence of distortion maps on ordinary curves with rational E[ell].

Case analysis over the tower Z[pi] <= O = End(E) <= O_K:

  - ell | [O_K : O]            -> no distortion maps at all;
  - otherwise, by the splitting of ell in O_K (the symbol (d_K|ell) of
    the fundamental discriminant): inert -> every order-ell subgroup has a
    distortion map, split -> all but two, ramified -> all but one.

The conductor c = [O_K : O] is supplied as input (curve catalog or CLI);
computing End(E) from scratch is out of scope.
"""

from math import isqrt

from .endo import TorsionMatrix, quadratic_roots_mod
from .field import check_ell

NO_DISTORTION = "NoDistortion"
INERT = "Inert"
SPLIT = "Split"
RAMIFIED = "Ramified"
# the cases indexed by their number of eigenlines among the ell + 1
# order-ell subgroups; every other subgroup is distorted
CASES = (INERT, RAMIFIED, SPLIT)


class NotImaginary(ValueError):
    """t^2 - 4q is not negative; not an ordinary/imaginary-quadratic setup."""


class InconsistentInput(ValueError):
    """The conductor c is not a positive divisor of f_pi."""


class PredicateViolated(AssertionError):
    """Census count contradicts the case prediction."""


def _squarefree_decompose(n: int) -> tuple:
    """n = f^2 * d with d squarefree; n >= 1.

    Trial division stops once q^3 > n: the cofactor left then has at most
    two prime factors, so it is a prime square or squarefree."""
    f, d = 1, 1
    q = 2
    while q * q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        f *= q ** (e // 2)
        if e % 2:
            d *= q
        q += 1 if q == 2 else 2
    r = isqrt(n)
    if r * r == n:
        return f * r, d
    return f, d * n


def _fundamental(disc: int) -> tuple:
    """(d_K, f) with disc = f^2 * d_K and d_K fundamental, for a negative
    discriminant disc.  A negative n is a fundamental discriminant iff
    _fundamental(n) == (n, 1): for n = 2, 3 mod 4 the first entry is 4
    times a divisor of n, so it is not n."""
    f, d = _squarefree_decompose(-disc)
    d = -d
    if d % 4 == 1:  # Python: -7 % 4 == 1
        return d, f
    # d = 2, 3 mod 4: the fundamental discriminant is 4d, and disc = 0, 1
    # mod 4 makes f even
    return 4 * d, f // 2


class OrderData:
    """Discriminant/conductor data for Z[pi] <= O <= O_K, from the trace t
    of Frobenius, its field size q and the conductor c = [O_K : O]: every
    invariant but c follows from t^2 - 4q = f_pi^2 * d_K."""

    def __init__(self, t: int, q: int, c: int):
        disc = t * t - 4 * q
        if disc >= 0:
            raise NotImaginary(f"t^2 - 4q = {disc} >= 0")
        self.d_K, self.f_pi = _fundamental(disc)
        if c < 1 or self.f_pi % c != 0:
            raise InconsistentInput(f"conductor c = {c} must divide f_pi = {self.f_pi}")
        self.q = q
        self.c = c
        self.index_O_Zpi = self.f_pi // c

    @classmethod
    def from_frobenius(cls, t: int, q: int, c: int) -> "OrderData":
        """OrderData(t, q, c), by the name the benchmark's cm-ell set-up calls."""
        return cls(t, q, c)

    def __repr__(self):
        return f"OrderData(d_K={self.d_K}, f_pi={self.f_pi}, c={self.c})"


class ClassificationReport:
    """Case tag plus (optionally) a per-subgroup distortion census."""

    def __init__(self, case_tag: str, ell: int, census_distorted=None,
                 eigen_subgroups=None, notes=None):
        self.case_tag = case_tag
        self.ell = ell
        self.census_distorted = census_distorted
        self.eigen_subgroups = eigen_subgroups
        self.notes = list(notes or [])

    def predicted_count(self) -> int:
        """Distorted-subgroup count predicted by the case tag."""
        if self.case_tag == NO_DISTORTION:
            return 0
        return self.ell + 1 - CASES.index(self.case_tag)

    def __repr__(self):
        return (
            f"ClassificationReport({self.case_tag}, ell={self.ell}, "
            f"census={self.census_distorted})"
        )


def _splitting(d_K: int, ell: int) -> int:
    """(d_K|ell) for a fundamental d_K and a prime ell: 1, 0 or -1 as ell
    splits, ramifies or stays inert in O_K."""
    if d_K % ell == 0:
        return 0
    if ell == 2:
        # an odd fundamental d_K is 1 or 5 mod 8
        return 1 if d_K % 8 == 1 else -1
    # Euler's criterion
    return 1 if pow(d_K, (ell - 1) // 2, ell) == 1 else -1


def classify_case(od: OrderData, ell: int) -> ClassificationReport:
    """Case tag for the prime ell from the order data alone."""
    check_ell(ell, od.q)
    notes = []
    if od.c % ell == 0:
        return ClassificationReport(NO_DISTORTION, ell, notes=notes)
    # E[ell] <= E(F_p) makes pi = 1 mod ell*O, so ell | [O : Z[pi]]
    if od.index_O_Zpi % ell == 0:
        notes.append(
            f"{ell} divides [O : Z[pi]] = {od.index_O_Zpi}; classification "
            "proceeds (only ell | [O_K : O] blocks distortion maps)"
        )
    else:
        notes.append(
            f"warning: {ell} does not divide [O : Z[pi]] = {od.index_O_Zpi}; "
            "E[ell] cannot be fully rational for this curve"
        )
    tag = CASES[_splitting(od.d_K, ell) + 1]
    return ClassificationReport(tag, ell, notes=notes)


def distortion_census(M: TorsionMatrix) -> ClassificationReport:
    """Mark each order-ell subgroup distorted iff it is not an eigenline.

    With M = ((a, b), (c, d)), <Q> = (0, 1) is an eigenline iff b = 0, and
    <P + k*Q> = (1, k) iff b*k^2 + (a - d)*k - c = 0 mod ell.  A scalar M
    zeroes that polynomial, so every line is an eigenline; otherwise there
    are 0, 1 or 2, which index CASES."""
    ell = M.ell
    (a, b), (c, d) = M.entries
    eigen = [(0, 1)] if b == 0 else []
    eigen += [(1, k) for k in quadratic_roots_mod((b, a - d, -c), ell)]
    n = len(eigen)
    return ClassificationReport(
        NO_DISTORTION if n == ell + 1 else CASES[n], ell,
        census_distorted=ell + 1 - n, eigen_subgroups=eigen,
    )


def verify_theorem1(od: OrderData, M: TorsionMatrix, ell: int) -> ClassificationReport:
    """Cross-check the case prediction against a concrete census.

    M must act as a generator of O/(ell) (non-scalar), except in the
    NoDistortion case where every endomorphism reduces to a scalar.
    Raises PredicateViolated on mismatch; returns the census report.

    Comparing the case tags checks all of that: a matrix is scalar iff its
    census tag is NoDistortion, and a tag fixes its distorted count."""
    predicted = classify_case(od, ell)
    census = distortion_census(M)
    if census.case_tag != predicted.case_tag:
        raise PredicateViolated(
            f"census {census!r} of {M!r} does not match prediction {predicted!r}"
        )
    return census
