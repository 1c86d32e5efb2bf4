"""Miller's algorithm, the Weil pairing and the reduced Tate pairing on
E[ell].

Everything lives in F_p: with q = 1 mod ell the ell-th roots of unity are
rational, so pairing values are plain field elements (embedding degree 1).

Miller's loop comes in two parts.  `_walk` walks A, 2A, ..., ell*A once
and records each step's line and vertical; `_read` evaluates the Miller
function f_A, with div(f_A) = ell(A) - ell(O), at a point X from those
records with products only, as a fraction num/den that its caller
combines with others before its one inversion.  So a base used at many
points is walked once (Costello-Stebila, "Fixed argument pairings",
LATINCRYPT 2010).  The lines and verticals are Miller's normalized ones
(Miller, "The Weil pairing, and its efficient calculation",
J. Cryptology 17, 2004): no auxiliary divisors are needed.

The Weil pairing is e_ell(A, B) = (-1)^ell f_B(A) / f_A(B).  A line of
either walk can vanish at the other point only when B lies in <A>, where
the pairing is 1.

The reduced Tate pairing t(A, X) = f_A(X)^((p-1)/ell) (Frey-Rueck 1994;
Galbraith, "Pairings", Advances in Elliptic Curve Cryptography, ch. IX,
2005) needs one walk.  With normalized functions f_A may be read at the
point X itself rather than at a divisor equivalent to (X) - (O): the two
differ by an ell-th power, which the final power removes.  It is
bilinear, but unlike the Weil pairing it can be 1 for X outside <A>, e.g.
when X lies in ell*E(F_p).

Each walk is the E[ell] check of its base; the private pairings check
nothing else.  `weil_pairing` walks the other argument when one is O,
where `_weil` walks nothing, and checks that its value is an ell-th root
of unity.

The exported convention is pinned by golden values: on the curve
y^2 = x^3 - 35x + 98 over F_701 the 5-torsion basis point P = (224, 31)
pairs with its alpha-image (173, 194) to 464.
"""

from .curve import Curve, Point
from .field import check_ell


class NotInTorsion(ValueError):
    """A point is not killed by ell, so it lies outside E[ell]."""


def _walk(C: Curve, ell: int, A: Point) -> tuple:
    """Miller's loop on an affine point A with nothing read yet: the walk
    A, 2A, ..., ell*A, one slope per step.  NotInTorsion if it meets O
    before its last step, or if ell*A != O: the walk is the E[ell] check
    of A.

    Returns (steps, (square, x0)).  Each step (square, lam, c, x3) is the
    line y = lam*x + c through T and V, whose sum T + V = (x3, y3) gives
    the vertical x = x3; square is set on a doubling, where Miller's
    function is squared first.  The last step, T + V = O, has the
    vertical line x = x0 and no vertical through the sum.
    """
    p, a4 = C.p, C.a4
    steps = []
    T = A
    for bit in bin(ell)[3:]:
        # the doubling of T, then for a 1 bit the addition of A
        for square in (True, False) if bit == "1" else (True,):
            if T is None:
                raise NotInTorsion(f"{A} does not have exact order {ell}")
            x1, y1 = T
            x2, y2 = T if square else A
            if x1 == x2:
                if (y1 + y2) % p == 0:
                    T, last = None, (square, x1)
                    continue
                lam = (3 * x1 * x1 + a4) * pow(2 * y1, -1, p) % p
            else:
                lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
            x3 = (lam * lam - x1 - x2) % p
            T = x3, (lam * (x1 - x3) - y1) % p
            steps.append((square, lam, (y1 - lam * x1) % p, x3))
    if T is not None:
        raise NotInTorsion(f"{A} does not have exact order {ell}")
    return steps, last


def _read(C: Curve, walk: tuple, X: Point) -> tuple | None:
    """f_A(X) = num/den as the pair (num, den), for the walk of A and an
    affine point X: the walk's lines and verticals read at X, with
    products only.

    Returns None when a line or vertical vanishes at X.  Every zero of
    those functions is a multiple of A, so that happens only for X in <A>.
    """
    p = C.p
    x, y = X
    num = den = 1
    steps, (square, x0) = walk
    for sq, lam, c, x3 in steps:
        if sq:
            num, den = num * num % p, den * den % p
        num = num * (y - lam * x - c) % p
        den = den * (x - x3) % p
    if square:
        num, den = num * num % p, den * den % p
    num = num * (x - x0) % p
    if num == 0 or den == 0:
        return None
    return num, den


def weil_pairing(C: Curve, ell: int, A: Point, B: Point) -> int:
    """Weil pairing e_ell(A, B) for A, B in E[ell], valued in mu_ell < F_p*.

    Computed from two Miller functions as (-1)^ell f_B(A) / f_A(B)
    (Miller, J. Cryptology 17, 2004), and 1 when B lies in <A>.  ell = p
    is a ValueError: mu_p in F_p* is trivial.
    """
    check_ell(ell, C.p)
    A, B = C.validate(A), C.validate(B)
    if (A is None) != (B is None):
        # with O in one slot _weil walks nothing: walk the other point
        _walk(C, ell, B if A is None else A)
    value = _weil(C, ell, A, B)
    if value == 0 or pow(value, ell, C.p) != 1:
        raise ValueError(f"{value} is not an {ell}-th root of unity mod {C.p}")
    return value


def _weil(C: Curve, ell: int, A: Point, B: Point,
          walk: tuple = None, walk_b: tuple = None) -> int:
    """weil_pairing's value without its checks, from the walks of A and B,
    or from `walk` and `walk_b` when the caller has recorded them: each walk
    checks its base, and B in <A> lies in E[ell] when A does; 1 for O.
    """
    if A is None or B is None:
        return 1
    fa = _read(C, walk or _walk(C, ell, A), B)
    fb = None if fa is None else _read(C, walk_b or _walk(C, ell, B), A)
    if fb is None:
        # a line of one walk vanished at the other point: B is in <A>,
        # where the pairing is trivial
        return 1
    # of the two inverse-of-each-other orientations, this is the one
    # matching the pinned golden value 464
    p = C.p
    return (-1) ** ell * fb[0] * fa[1] * pow(fb[1] * fa[0], -1, p) % p


def _tate(C: Curve, ell: int, A: Point, X: Point, walk: tuple = None) -> int:
    """The reduced Tate pairing t(A, X) = f_{ell,A}(X)^((p-1)/ell) in
    mu_ell < F_p*, for A, X on C, from the walk of A or from `walk` when
    the caller has recorded it; 1 when A or X is O.  The walk checks A,
    but not X, which must lie outside <A> unless it is O: else a line of
    the walk vanishes at X, and ValueError is raised."""
    if A is None or X is None:
        return 1
    f = _read(C, _walk(C, ell, A) if walk is None else walk, X)
    if f is None:
        raise ValueError(f"{X} lies in <{A}>, where f_A cannot be read")
    p = C.p
    return pow(f[0] * pow(f[1], -1, p), (p - 1) // ell, p)
