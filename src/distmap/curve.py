"""Short Weierstrass curves y^2 = x^3 + a4*x + a6 over F_p.

Points are affine tuples (x, y) with the identity represented as None,
mirroring the usual small-curve idiom.  All functions are pure.
"""

from math import gcd, isqrt
from typing import Optional, Tuple

from .field import PrimeField

Point = Optional[Tuple[int, int]]

EXHAUSTIVE_LIMIT = 1 << 24


class PointNotOnCurve(ValueError):
    """A supplied point fails the curve equation."""


class SupersingularCurve(ValueError):
    """The curve is supersingular (p | t); out of scope."""


class BadReduction(ValueError):
    """Reduction mod p hits a denominator or yields a singular curve."""


class Curve:
    """y^2 = x^3 + a4*x + a6 over F_p, nonsingular."""

    def __init__(self, field: PrimeField, a4: int, a6: int):
        self.field = field
        self.a4 = a4 % field.p
        self.a6 = a6 % field.p
        disc = (4 * self.a4 ** 3 + 27 * self.a6 ** 2) % field.p
        if disc == 0:
            raise ValueError(
                f"singular curve: 4*a4^3 + 27*a6^2 = 0 mod {field.p}"
            )

    @property
    def p(self) -> int:
        return self.field.p

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and other.field == self.field
            and other.a4 == self.a4
            and other.a6 == self.a6
        )

    def __hash__(self):
        return hash(("Curve", self.p, self.a4, self.a6))

    def __repr__(self):
        return f"Curve(p={self.p}, a4={self.a4}, a6={self.a6})"

    def rhs(self, x: int) -> int:
        """x^3 + a4*x + a6 mod p."""
        return (x * x % self.p * x + self.a4 * x + self.a6) % self.p

    def contains(self, A: Point) -> bool:
        if A is None:
            return True
        x, y = A
        return y * y % self.p == self.rhs(x)

    def validate(self, A: Point) -> Point:
        """Canonicalize coordinates and check the curve equation."""
        if A is None:
            return None
        x, y = A[0] % self.p, A[1] % self.p
        if y * y % self.p != self.rhs(x):
            raise PointNotOnCurve(f"({A[0]}, {A[1]}) not on {self!r}")
        return (x, y)

    def lift_x(self, x: int) -> Point:
        """A point with the given x-coordinate (smaller y), or None marker
        via exception if x is not on the curve."""
        y = self.field.sqrt(self.rhs(x % self.p))
        if y is None:
            raise PointNotOnCurve(f"x={x} has no point on {self!r}")
        return (x % self.p, y)


class FrobeniusData:
    """Counted group order and Frobenius trace for a curve over F_p."""

    def __init__(self, q: int, order_n: int, trace_t: int):
        if trace_t != q + 1 - order_n:
            raise ValueError("trace inconsistent with order")
        if trace_t * trace_t > 4 * q:
            raise ValueError(f"Hasse bound violated: t={trace_t}, q={q}")
        if gcd(trace_t, q) != 1:
            raise SupersingularCurve(
                f"gcd(t, p) != 1 (t={trace_t}, p={q}); ordinary curves only"
            )
        self.q = q
        self.order_n = order_n
        self.trace_t = trace_t

    def __repr__(self):
        return f"FrobeniusData(q={self.q}, n={self.order_n}, t={self.trace_t})"


def point_neg(C: Curve, A: Point) -> Point:
    if A is None:
        return None
    x, y = A
    return (x, -y % C.p)


def _add(C: Curve, A: Point, B: Point) -> Point:
    """Chord-tangent group law for points already known to lie on C.

    The unchecked core under point_add: the operands must be canonical
    points of C (validated, or computed from validated points), so the
    slope's denominator is never 0 mod p.
    """
    if A is None:
        return B
    if B is None:
        return A
    p = C.p
    x1, y1 = A
    x2, y2 = B
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        # doubling (y1 == y2 != 0 here)
        lam = (3 * x1 * x1 + C.a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def _mul(C: Curve, k: int, A: Point) -> Point:
    """k*A by double-and-add for A already known to lie on C; negative k
    uses the inverse point."""
    if k < 0:
        k, A = -k, point_neg(C, A)
    R: Point = None
    Q = A
    while k:
        if k & 1:
            R = _add(C, R, Q)
        k >>= 1
        if k:
            Q = _add(C, Q, Q)
    return R


def point_add(C: Curve, A: Point, B: Point) -> Point:
    """Chord-tangent group law; raises PointNotOnCurve for an operand off C."""
    return _add(C, C.validate(A), C.validate(B))


def scalar_mul(C: Curve, k: int, A: Point) -> Point:
    """k*A by double-and-add; negative k uses the inverse point."""
    return _mul(C, k, C.validate(A))


def _count_exhaustive(C: Curve) -> int:
    # #E = p + 1 + sum_x chi(x^3 + a4 x + a6)
    p = C.p
    n = p + 1
    for x in range(p):
        n += C.field.legendre(C.rhs(x))
    return n


def _point_order_bsgs(C: Curve, A: Point) -> int:
    """Exact order of A, via BSGS for a multiple of ord(A) near p + 1."""
    p = C.p
    if A is None:
        return 1
    # find M in [p+1-2*sqrt(p), p+1+2*sqrt(p)] with M*A = O
    w = isqrt(4 * p) + 1
    m = isqrt(w) + 1
    baby = {}
    Q: Point = None
    for j in range(m + 1):
        baby.setdefault(Q, j)
        Q = _add(C, Q, A)
    lo = p + 1 - w
    base = _mul(C, lo, A)
    giant = _mul(C, m + 1, A)
    giant_neg = point_neg(C, giant)
    R = point_neg(C, base)
    M = None
    for i in range((2 * w) // (m + 1) + 2):
        # M*A = O iff (lo + i*(m+1))*A = j*A with j in the baby table
        if R in baby:
            M = lo + i * (m + 1) + baby[R]
            break
        R = _add(C, R, giant_neg)
    if M is None or M == 0:
        raise RuntimeError("BSGS failed to find an annihilating multiple")
    # strip prime factors to get the exact order
    order = M
    f = 2
    rem = M
    while f * f <= rem:
        while rem % f == 0:
            rem //= f
            if _mul(C, order // f, A) is None:
                order //= f
        f += 1
    if rem > 1 and _mul(C, order // rem, A) is None:
        order //= rem
    return order


def _count_bsgs(C: Curve, seed: int = 1) -> int:
    """Group order via lcm of random point orders (Shanks-Mestre style)."""
    import random

    rng = random.Random(seed)
    p = C.p
    w = isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    L = 1
    for _ in range(64):
        x = rng.randrange(p)
        try:
            A = C.lift_x(x)
        except PointNotOnCurve:
            continue
        o = _point_order_bsgs(C, A)
        L = L * o // gcd(L, o)
        first = (lo + L - 1) // L * L
        candidates = list(range(first, hi + 1, L))
        if len(candidates) == 1:
            return candidates[0]
    raise RuntimeError("point counting did not converge to a unique order")


def count_points(C: Curve) -> FrobeniusData:
    """Exact #E(F_p); exhaustive character sum for small p, BSGS beyond."""
    p = C.p
    if p < EXHAUSTIVE_LIMIT:
        n = _count_exhaustive(C)
    else:
        n = _count_bsgs(C)
    return FrobeniusData(p, n, p + 1 - n)


def reduce_rational_curve(
    num_a4: int, den_a4: int, num_a6: int, den_a6: int, p: int
) -> Curve:
    """Reduce a curve with rational coefficients mod an odd prime p."""
    field = PrimeField(p)
    if den_a4 % p == 0 or den_a6 % p == 0:
        raise BadReduction(f"denominator divisible by {p}")
    a4 = num_a4 * field.inv(den_a4) % p
    a6 = num_a6 * field.inv(den_a6) % p
    try:
        return Curve(field, a4, a6)
    except ValueError as exc:
        raise BadReduction(f"singular reduction at {p}: {exc}") from exc
