"""Miller's algorithm, the Weil pairing and the reduced Tate pairing on
E[ell].

Everything lives in F_p: with q = 1 mod ell the ell-th roots of unity are
rational, so pairing values are plain field elements (embedding degree 1).

The Weil pairing is e_ell(A, B) = (-1)^ell f_B(A) / f_A(B) for the two
Miller functions with div(f_A) = ell(A) - ell(O), built from normalized
lines and verticals (Miller, "The Weil pairing, and its efficient
calculation", J. Cryptology 17, 2004): no auxiliary divisors are needed.
A line of either loop can vanish at the other point only when B lies in
<A>, where the pairing is 1.

The reduced Tate pairing t(A, X) = f_A(X)^((p-1)/ell) (Frey-Rueck 1994;
Galbraith, "Pairings", Advances in Elliptic Curve Cryptography, ch. IX,
2005) needs one Miller loop.  With normalized functions f_A may be read at
the point X itself rather than at a divisor equivalent to (X) - (O): the
two differ by an ell-th power, which the final power removes.  It is
bilinear, but unlike the Weil pairing it can be 1 for X outside <A>, e.g.
when X lies in ell*E(F_p).

Each Miller loop is the E[ell] check of its base; the private pairings
check nothing else.  `weil_pairing` checks ell*A = O itself, since a
pairing with O in one slot runs no loop.

The exported convention is pinned by golden values: on the curve
y^2 = x^3 - 35x + 98 over F_701 the 5-torsion basis point P = (224, 31)
pairs with its alpha-image (173, 194) to 464.
"""

from .curve import Curve, Point, _mul
from .field import check_ell


class NotInTorsion(ValueError):
    """A point is not killed by ell, so it lies outside E[ell]."""


class PairingValue:
    """An ell-th root of unity in F_p."""

    def __init__(self, curve: Curve, ell: int, value: int):
        value %= curve.p
        if value == 0 or pow(value, ell, curve.p) != 1:
            raise ValueError(f"{value} is not an {ell}-th root of unity mod {curve.p}")
        self.curve = curve
        self.ell = ell
        self.value = value

    def __eq__(self, other):
        return isinstance(other, PairingValue) and other.value == self.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"PairingValue({self.value} mod {self.curve.p})"

    def is_trivial(self) -> bool:
        return self.value == 1


def _step(C: Curve, U: Point, V: Point, X: Point) -> tuple:
    """One step of Miller's loop, from a single slope: the value at X of
    the line through U and V, the value at X of the vertical through
    U + V, and U + V itself.

    U and V are affine points of C: in a loop over A of exact order ell
    they are multiples kA with 0 < k < ell.  For U = V with vertical
    tangent (y = 0), and for U = -V, the line is the vertical through U
    and the sum is the identity, whose vertical is the constant 1.
    """
    p = C.p
    x, y = X
    # curve._add's slope and sum, inlined so one inversion serves both
    # the line and the sum in the innermost loop of every pairing
    x1, y1 = U
    x2, y2 = V
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return (x - x1) % p, 1, None
        lam = (3 * x1 * x1 + C.a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (y - y1 - lam * (x - x1)) % p, (x - x3) % p, (x3, y3)


def _miller_at_point(C: Curve, ell: int, A: Point, X: Point) -> int | None:
    """f_{ell,A}(X) where div(f) = ell(A) - ell(O), for X an affine point,
    from Miller's normalized lines and verticals.  The walk A, 2A, ... is
    the E[ell] check of A: NotInTorsion if it meets O before ell*A, or if
    ell*A != O.

    Returns None when a line or vertical of the loop vanishes at X.  Every
    zero of those functions is a multiple of A, so that happens only for
    X in <A>.
    """
    p = C.p
    T = A
    num, den = 1, 1
    for bit in bin(ell)[3:]:
        num, den = num * num % p, den * den % p
        # the doubling of T, then for a 1 bit the addition of A
        for V in (T, A) if bit == "1" else (T,):
            if T is None:
                raise NotInTorsion(f"{A} does not have exact order {ell}")
            l, v, T = _step(C, T, V, X)
            num, den = num * l % p, den * v % p
    if T is not None:
        raise NotInTorsion(f"{A} does not have exact order {ell}")
    if num == 0 or den == 0:
        return None
    return num * pow(den, -1, p) % p


def weil_pairing(C: Curve, ell: int, A: Point, B: Point) -> PairingValue:
    """Weil pairing e_ell(A, B) for A, B in E[ell], valued in mu_ell < F_p*.

    Computed from two Miller functions as (-1)^ell f_B(A) / f_A(B)
    (Miller, J. Cryptology 17, 2004), and 1 when B lies in <A>.
    """
    check_ell(ell)
    A = C.validate(A)
    B = C.validate(B)
    if _mul(C, ell, A) is not None or _mul(C, ell, B) is not None:
        raise NotInTorsion(f"arguments must lie in E[{ell}]")
    return _weil(C, ell, A, B)


def _weil(C: Curve, ell: int, A: Point, B: Point) -> PairingValue:
    """weil_pairing without its checks: each Miller loop checks its base,
    and B in <A> lies in E[ell] when A does; 1 when A or B is O."""
    if A is None or B is None:
        return PairingValue(C, ell, 1)
    fa = _miller_at_point(C, ell, A, B)
    fb = None if fa is None else _miller_at_point(C, ell, B, A)
    if fb is None:
        # a line of one loop vanished at the other point: B is in <A>,
        # where the pairing is trivial
        return PairingValue(C, ell, 1)
    # of the two inverse-of-each-other orientations, this is the one
    # matching the pinned golden value 464
    p = C.p
    return PairingValue(C, ell, (-1) ** ell * fb * pow(fa, -1, p) % p)


def _tate_unreduced(C: Curve, ell: int, A: Point, X: Point) -> int:
    """f_{ell,A}(X), the Tate pairing before its final power, for A, X on
    C; 1 when A or X is O.  The Miller loop checks A, but not X, which must
    lie outside <A> unless it is O: else a line of the loop vanishes at X,
    and ValueError is raised."""
    if A is None or X is None:
        return 1
    f = _miller_at_point(C, ell, A, X)
    if f is None:
        raise ValueError(f"{X} lies in <{A}>, where f_A cannot be read")
    return f


def _tate(C: Curve, ell: int, A: Point, X: Point) -> int:
    """The reduced Tate pairing t(A, X) = f_{ell,A}(X)^((p-1)/ell) in
    mu_ell < F_p*, for A, X in E[ell] on C with X outside <A> unless it is
    O; 1 when A or X is O."""
    return pow(_tate_unreduced(C, ell, A, X), (C.p - 1) // ell, C.p)
