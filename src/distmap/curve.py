"""Short Weierstrass curves y^2 = x^3 + a4*x + a6 over F_p.

Points are affine tuples (x, y) with the identity represented as None,
mirroring the usual small-curve idiom.  All functions are pure.
"""

import random
from math import gcd, isqrt
from typing import Optional, Tuple

from .field import PrimeField

Point = Optional[Tuple[int, int]]

# Above 229, E or its quadratic twist always has a point whose order has a
# single multiple in the Hasse interval (Cremona-Sutherland, "On a theorem
# of Mestre and Schoof", JTNB 22, 2010), so BSGS is exact; at or below it
# the character sum is both safe and cheap.
EXHAUSTIVE_LIMIT = 229
COUNT_POINT_BUDGET = 128
# From here on count_points also takes #E mod 3 (_three_part, 0.05-0.3 ms);
# below it the step costs about what the sparser scan saves (measured)
THREE_PART_MIN = 1 << 30


class PointNotOnCurve(ValueError):
    """A supplied point fails the curve equation."""


class SupersingularCurve(ValueError):
    """The curve is supersingular (p | t); out of scope."""


class CountingExhausted(RuntimeError):
    """Random points left more than one candidate for #E."""


class BadReduction(ValueError):
    """Reduction mod p hits a denominator or yields a singular curve."""


class Curve:
    """y^2 = x^3 + a4*x + a6 over F_p, nonsingular."""

    def __init__(self, field: PrimeField, a4: int, a6: int):
        self.field = field
        self.p = field.p
        self.a4 = a4 % field.p
        self.a6 = a6 % field.p
        disc = (4 * self.a4 ** 3 + 27 * self.a6 ** 2) % field.p
        if disc == 0:
            raise ValueError(
                f"singular curve: 4*a4^3 + 27*a6^2 = 0 mod {field.p}"
            )

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

    def validate(self, A: Point) -> Point:
        """Canonicalize coordinates and check the curve equation."""
        if A is None:
            return None
        x, y = A[0] % self.p, A[1] % self.p
        if y * y % self.p != self.rhs(x):
            raise PointNotOnCurve(f"({A[0]}, {A[1]}) not on {self!r}")
        return (x, y)


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


def _add_each(C: Curve, As, B: Point):
    """[_add(C, A, B) for A in As] with one inversion for the whole list.

    Montgomery's simultaneous inversion ("Speeding the Pollard and elliptic
    curve methods of factorization", Math. Comp. 48, 1987): prefix products
    of the slope denominators x(B) - x(A), one inversion of their product,
    then a backward pass that peels off each 1/(x(B) - x(A)).  An A that is
    O or shares B's x, and every A when B is O, goes through _add.
    """
    if B is None:
        return [_add(C, A, B) for A in As]
    p = C.p
    x2, y2 = B
    before = []  # before[i]: the product of the denominators of As[:i]
    acc = 1
    for A in As:
        before.append(acc)
        if A is not None and A[0] != x2:
            acc = acc * (x2 - A[0]) % p
    inv = pow(acc, -1, p)  # 1 / (the product of every denominator so far)
    sums = []
    for A, d in zip(reversed(As), reversed(before)):
        if A is None or A[0] == x2:
            sums.append(_add(C, A, B))
            continue
        x1, y1 = A
        lam = (y2 - y1) * inv * d % p
        inv = inv * (x2 - x1) % p
        x3 = (lam * lam - x1 - x2) % p
        sums.append((x3, (lam * (x1 - x3) - y1) % p))
    sums.reverse()
    return sums


def _mul(C: Curve, k: int, A: Point) -> Point:
    """k*A for A already known to lie on C; negative k uses the inverse point.

    Left-to-right double-and-add in Jacobian coordinates (X : Y : Z) =
    (X/Z^2, Y/Z^3), Z = 0 standing for O, adding the affine A by a mixed
    addition (Cohen-Miyaji-Ono, ASIACRYPT 1998): no inversion in the loop,
    and one at the end back to affine when k*A != O.
    """
    if k < 0:
        k, A = -k, point_neg(C, A)
    if A is None or k == 0:
        return None
    p, a4 = C.p, C.a4
    x, y = A
    X, Y, Z = x, y, 1
    for bit in bin(k)[3:]:
        add = bit == "1"
        while True:
            # doubling; O (Z = 0) and a point of order 2 (Y = 0) give Z = 0
            YY = Y * Y % p
            S = 4 * X * YY % p
            ZZ = Z * Z % p
            M = (3 * X * X + a4 * ZZ * ZZ) % p
            Z = 2 * Y * Z % p
            X = (M * M - 2 * S) % p
            Y = (M * (S - X) - 8 * YY * YY) % p
            if not add:
                break
            add = False
            if Z == 0:
                X, Y, Z = x, y, 1
                break
            # mixed addition of A: H = 0 iff the running point is +-A
            ZZ = Z * Z % p
            H = (x * ZZ - X) % p
            r = (y * ZZ * Z - Y) % p
            if H == 0:
                if r == 0:
                    continue  # the running point is A: the sum 2A is its double
                Z = 0
                break
            HH = H * H % p
            HHH = H * HH % p
            V = X * HH % p
            X = (r * r - HHH - 2 * V) % p
            Y = (r * (V - X) - Y * HHH) % p
            Z = Z * H % p
            break
    if Z == 0:
        return None
    zi = pow(Z, -1, p)
    zz = zi * zi % p
    return (X * zz % p, Y * zz * zi % p)


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


def _random_point(C: Curve, rng: random.Random) -> Point:
    """A point of C over a uniformly drawn x-coordinate (smaller y)."""
    while True:
        x = rng.randrange(C.p)
        y = C.field.sqrt(C.rhs(x))
        if y is not None:
            return (x, y)


# Below this many points an inversion costs only a few products, so
# _progression adds one point at a time (n <= 33 for the BSGS steps at
# p < 2^18); layers start to pay near n = 40, p ~ 2^19.
_LAYER_MIN = 40


def _progression(C: Curve, G: Point, S: Point, n: int) -> list:
    """[G + i*S for i in range(n)], n >= 1.  Below _LAYER_MIN points, one
    _add per point; from there on in doubling layers: points k..2k-1 are
    points 0..k-1 plus k*S, one _add_each (one inversion) per layer
    (Montgomery 1987).  k*S is the last point so far when G = S, else one
    doubling per layer."""
    pts = [G]
    if n < _LAYER_MIN:
        for _ in range(n - 1):
            pts.append(_add(C, pts[-1], S))
        return pts
    kS = S
    while len(pts) < n:
        if len(pts) > 1:
            kS = pts[-1] if G == S else _add(C, kS, kS)
        pts += _add_each(C, pts[: n - len(pts)], kS)
    return pts


def _annihilators(C: Curve, A: Point, first: int, step: int, count: int):
    """The k in [0, count) with (first + k*step)*A = O, as (k0, e): they are
    exactly k0, k0 + e, k0 + 2e, ... below count.  Raises ValueError,
    naming the progression, when there is none.

    Baby-step/giant-step in k with B = step*A.  Baby steps j*B are keyed by
    x, so one entry stands for +-j*B.  A baby step that meets O, a point
    of order 2 or an x seen before gives the exact order e of B, and one
    lookup of first*A then places k0.  Otherwise ord(B) > 2m, each giant
    window of 2m + 1 consecutive k holds at most one solution, and the scan
    visits every window.  The baby steps and the giant steps are each built
    whole as a _progression and then checked in order.
    """
    base = _mul(C, first, A)
    B = _mul(C, step, A)
    m = isqrt(count // 2) + 1
    table = {}  # x(j*B) -> (j, y(j*B)) for 1 <= j <= m
    babies = _progression(C, B, B, m + 1)
    hits = []
    for j, T in zip(range(1, m + 1), babies):
        if T is None or T[1] == 0 or T[0] in table:
            # j*B is O, of order 2, or -i*B for an i < j (i*B = j*B would
            # have met O at step j - i): so e = ord(B), and with T the
            # table holds +-i*B for every i*B != O in <B>
            if T is None:
                e = j
            else:
                e = 2 * j if T[1] == 0 else j + table[T[0]][0]
                table.setdefault(T[0], (j, T[1]))
            if base is None:
                hits = [0]
            elif base[0] in table:  # else base is not in <B>
                i, y = table[base[0]]
                hits = [(-i if base[1] == y else i) % e]
            break
        table[T[0]] = (j, T[1])
    else:
        # giant steps: G = (first + c*step)*A at window centres
        # c = m + i(2m + 1)
        windows = range(m, count + m, 2 * m + 1)
        mB, T = babies[m - 1], babies[m]
        giants = _progression(C, _add(C, base, mB), _add(C, mB, T), len(windows))
        for c, G in zip(windows, giants):
            if G is None:
                hits.append(c)
            elif G[0] in table:
                j, y = table[G[0]]
                hits.append(c - j if G[1] == y else c + j)
        e = count  # read only with one hit: no other lies below count
    hits = [k for k in hits if k < count]
    if not hits:
        raise ValueError(f"no k in [0, {count}) has ({first} + k*{step})*{A} = O")
    return hits[0], (hits[1] - hits[0] if len(hits) > 1 else e)


def _two_part(C: Curve) -> Tuple[int, int]:
    """(r, s) with #E = r mod s and s in {2, 4}: the ell = 2 step of Schoof's
    algorithm (Math. Comp. 44, 1985), refined mod 4 by a 2-descent.

    The points of order 2 are the (x0, 0) with f(x0) = 0, where
    f = x^3 + a4*x + a6, and f has 0, 1 or 3 roots in F_p: exactly one iff
    its discriminant -(4*a4^3 + 27*a6^2) is a non-square.  Three roots make
    E[2] rational, so 4 | #E; x^p = x mod f tells three from none (#E odd).
    With one root r0, E(F_p)[2] = Z/2, and 4 | #E iff T = (r0, 0) lies in
    2E(F_p), iff the descent map x - r0 sends T to a square: f'(r0) =
    3*r0^2 + a4.  r0 is the root of gcd(f, x^p - x), of degree 1.
    """
    F, p, a4, a6 = C.field, C.p, C.a4, C.a6
    # x^p mod f as c0 + c1*x + c2*x^2, by square-and-multiply with
    # x^3 = -a4*x - a6 and x^4 = -a4*x^2 - a6*x
    c0, c1, c2 = 0, 1, 0
    for bit in bin(p)[3:]:
        t, u = 2 * c1 * c2 % p, c2 * c2 % p
        c0, c1, c2 = (
            (c0 * c0 - a6 * t) % p,
            (2 * c0 * c1 - a4 * t - a6 * u) % p,
            (c1 * c1 + 2 * c0 * c2 - a4 * u) % p,
        )
        if bit == "1":
            c0, c1, c2 = -a6 * c2 % p, (c0 - a4 * c2) % p, c1
    if F.legendre(-(4 * a4 ** 3 + 27 * a6 ** 2)) == 1:
        return (0, 4) if (c0, c1, c2) == (0, 1, 0) else (1, 2)
    # r0, the one common root of f and x^p - x = c2*x^2 + b*x + c0 mod f,
    # is -k/l: c2^2 times f's remainder by the latter is l*x + k, and when
    # c2 = 0, -k/l = -c0/b; then f'(r0) = (3*k^2 + a4*l^2) / l^2
    b = c1 - 1
    k, l = b * c0 + a6 * c2 * c2, b * b - c0 * c2 + a4 * c2 * c2
    return (0, 4) if F.legendre(3 * k * k + a4 * l * l) == 1 else (2, 4)


def _three_part(C: Curve) -> int:
    """#E mod 3: the ell = 3 step of Schoof's algorithm (Math. Comp. 44, 1985).

    Work in K = F_p[x]/(h), h = psi_3/3 = x^4 + 2*a4*x^2 + 4*a6*x - a4^2/3,
    where x is the x-coordinate X of a point P of order 3.  The roots of
    g = gcd(x^p - x, h) are the lines of E[3] that Frobenius pi fixes, each
    with eigenvalue +-1 = y^(p-1) = f(X)^((p-1)/2); pi^2 - t*pi + p = 0 there.
    p = 1 mod 3: no fixed line makes t = 0 mod 3, else every fixed line (1
    or 4) has the eigenvalue lam, and t = 2*lam.  p = 2 mod 3: a fixed line
    makes t = 0; with none, pi is a 4-cycle on the lines, K a field, and
    pi^2 P = P + t*pi(P), t = +-1, read off x(P +- pi(P)) = x(pi^2 P) with
    the denominator (x(pi P) - X)^2 cleared.  Anything else: ValueError.
    """
    p, a4, a6 = C.p, C.a4, C.a6
    # x^4 = A*x^2 + B*x + D mod h
    A, B, D = -2 * a4 % p, -4 * a6 % p, a4 * a4 * pow(3, -1, p) % p

    def mul(u, v):  # u*v in K, coefficients from x^0 up to x^3
        u0, u1, u2, u3 = u
        v0, v1, v2, v3 = v
        w6 = u3 * v3 % p
        w5 = (u2 * v3 + u3 * v2) % p
        w4 = (u1 * v3 + u2 * v2 + u3 * v1 + A * w6) % p
        return (
            (u0 * v0 + D * w4) % p,
            (u0 * v1 + u1 * v0 + D * w5 + B * w4) % p,
            (u0 * v2 + u1 * v1 + u2 * v0 + D * w6 + B * w5 + A * w4) % p,
            (u0 * v3 + u1 * v2 + u2 * v1 + u3 * v0 + B * w6 + A * w5) % p,
        )

    def f_power():  # f^((p-1)/2) in K
        r = (1, 0, 0, 0)
        for bit in bin((p - 1) // 2)[2:]:
            r = mul(r, r)
            if bit == "1":
                r = mul(r, f)
        return r

    f, xp = (a6, a4, 0, 1), (0, 1, 0, 0)
    for bit in bin(p)[3:]:  # x^p; x times u is a shift
        u0, u1, u2, u3 = xp = mul(xp, xp)
        if bit == "1":
            xp = (D * u3 % p, (u0 + B * u3) % p, (u1 + A * u3) % p, u2)
    # g by Euclid on pseudo-remainders lc(b)*a - lc(a)*x^k*b: no inversion
    a, b = [-D % p, -B % p, -A % p, 0, 1], [xp[0], (xp[1] - 1) % p, xp[2], xp[3]]
    while any(b):
        while b[-1] == 0:
            b.pop()
        while len(a) >= len(b):
            k = len(a) - len(b)
            a = [(b[-1] * c - a[-1] * (b[i - k] if i >= k else 0)) % p
                 for i, c in enumerate(a[:-1])]
        a, b = b, a
    t, case = None, (p % 3, len(a) - 1)
    if case in ((1, 0), (2, 2)):
        t = 0
    elif case == (1, 1):  # f(-g0/g1) times g1^4, a square
        g0, g1 = a
        lam = C.field.legendre((a6 * g1 ** 3 - a4 * g0 * g1 * g1 - g0 ** 3) * g1)
        t = {1: 2, -1: -2}.get(lam)
    elif case == (1, 4):
        t = {(1, 0, 0, 0): 2, (p - 1, 0, 0, 0): -2}.get(f_power())
    elif case == (2, 0):
        f1, x2 = f_power(), (0, 0, 0, 0)  # y^(p-1); x^(p^2) = xp(xp)
        for c in reversed(xp):
            w0, *w = mul(x2, xp)
            x2 = (w0 + c, *w)
        d = (xp[0], xp[1] - 1, xp[2], xp[3])  # x(pi P) - X
        # (x(pi^2 P) + x(pi P) + X) * d^2
        rhs = mul(tuple(c + e + z for c, e, z in zip(x2, xp, (0, 1, 0, 0))), mul(d, d))
        for s in (1, -1):  # f*(f1 - s)^2 = rhs iff t = s
            u = (f1[0] - s, *f1[1:])
            if mul(f, mul(u, u)) == rhs:
                t = s
    if t is None:
        raise ValueError(f"3-torsion of {C!r}: {case} fits no case")
    return (p + 1 - t) % 3


def _count_bsgs(C: Curve, residue: Tuple[int, int] = (0, 1), seed: int = 1) -> int:
    """#E by baby-step/giant-step on random points of E and its twist E',
    given that #E = r mod s for residue = (r, s).

    The candidates for #E stay an arithmetic progression in the Hasse
    interval, starting as its M = r mod s.  Each point A keeps the
    candidates M with M*A = O (on E) or (2p + 2 - M)*A = O (on E', as
    #E + #E' = 2p + 2).  Points are drawn alternately from E and E' until
    one candidate is left; for p > 229 some point of E or E' has an order
    with a single multiple in the Hasse interval (Cremona-Sutherland,
    JTNB 22, 2010).  #E is a candidate throughout, as it kills every point
    of E and 2p + 2 - #E every point of E', so the survivor is #E.  The
    draws do not depend on the residue: after each one the candidates are
    those of a run on the whole interval that are r mod s, so a residue
    never takes more draws, and the first scan has 1/s of the candidates.

    A residue that does not hold #E usually leaves no candidate, and
    _annihilators raises ValueError; but a wrong survivor can be left and
    is returned as #E.  So a residue not proven, as those count_points
    passes (mod 2 or 4, and mod 6 or 12 from THREE_PART_MIN on) are, needs
    a certificate of the count it gives.
    """
    rng = random.Random(seed)
    p = C.p
    g = C.field.non_residue
    twist = Curve(C.field, g * g * C.a4, g * g * g * C.a6)
    w = isqrt(4 * p)
    # the candidates for #E are first + k*step for 0 <= k < count
    r, step = residue
    # the least M = r mod step with M >= p + 1 - w
    first = p + 1 - w + (r - (p + 1 - w)) % step
    count = (p + 1 + w - first) // step + 1
    for draw in range(COUNT_POINT_BUDGET):
        # on E', (M - (2p + 2))*A = O iff (2p + 2 - M)*A = O
        D, shift = (twist, 2 * p + 2) if draw % 2 else (C, 0)
        A = _random_point(D, rng)
        k0, e = _annihilators(D, A, first - shift, step, count)
        first += k0 * step
        step *= e
        count = (count - 1 - k0) // e + 1
        if count == 1:
            return first
    raise CountingExhausted(
        f"point counting: {COUNT_POINT_BUDGET} points left {count} candidates for #E"
    )


def count_points(C: Curve) -> FrobeniusData:
    """Exact #E(F_p): the character sum for p <= 229, above it BSGS on E
    and its quadratic twist (_count_bsgs) over #E mod 2 or 4 from
    _two_part, and from THREE_PART_MIN on over #E mod 6 or 12, its CRT with
    #E mod 3 from _three_part: a progression of the Hasse interval 2, 4, 6
    or 12 times sparser that still holds #E, as both residues are proven."""
    p = C.p
    if p <= EXHAUSTIVE_LIMIT:
        n = _count_exhaustive(C)
    else:
        r, s = _two_part(C)
        if p >= THREE_PART_MIN:
            r3 = _three_part(C)
            r, s = next(m for m in range(r, 3 * s, s) if m % 3 == r3), 3 * s
        n = _count_bsgs(C, (r, s))
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
