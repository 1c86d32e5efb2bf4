"""Miller's algorithm and the Weil pairing on E[ell].

Everything lives in F_p: with q = 1 mod ell the ell-th roots of unity are
rational, so pairing values are plain field elements (embedding degree 1).

The exported convention is pinned by golden values: on the curve
y^2 = x^3 - 35x + 98 over F_701 the 5-torsion basis point P = (224, 31)
pairs with its alpha-image (173, 194) to 464.
"""

from .curve import Curve, Point, _add, _mul, point_neg


class DivisorCollision(ArithmeticError):
    """Evaluation point hit a zero/pole of a Miller line function."""


class NotTorsion(ValueError):
    """A pairing argument is not killed by ell."""


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
        if isinstance(other, int):
            return self.value == other % self.curve.p
        return isinstance(other, PairingValue) and other.value == self.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"PairingValue({self.value} mod {self.curve.p})"

    def is_trivial(self) -> bool:
        return self.value == 1

    def multiplicative_order(self) -> int:
        # ell is prime, so the order is 1 or ell
        return 1 if self.value == 1 else self.ell


def _step(C: Curve, U: Point, V: Point, X: Point) -> tuple:
    """One step of Miller's loop, from a single slope: the value at X of
    the line through U and V, the value at X of the vertical through
    U + V, and U + V itself.

    U and V are points of C.  For U = V with vertical tangent (y = 0),
    and for U = -V, the line is the vertical through U and the sum is the
    identity, whose vertical is the constant 1.  Either point being the
    identity degenerates to the vertical through the other.
    """
    p = C.p
    x, y = X
    if U is None or V is None:
        W = V if U is None else U
        if W is None:
            return 1, 1, None
        v = (x - W[0]) % p
        return v, v, W
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


def _miller_at_point(C: Curve, ell: int, A: Point, X: Point) -> int:
    """f_{ell,A}(X) where div(f) = ell(A) - ell(O), for A of order ell.

    Raises DivisorCollision when X hits a zero/pole of an intermediate
    line (in particular X in {A, O} or related degenerate positions).
    """
    if X is None:
        raise DivisorCollision("cannot evaluate a Miller function at the identity")
    p = C.p
    T = A
    num, den = 1, 1
    for bit in bin(ell)[3:]:
        l, v, T = _step(C, T, T, X)
        num = num * num % p * l % p
        den = den * den % p * v % p
        if bit == "1":
            l, v, T = _step(C, T, A, X)
            num = num * l % p
            den = den * v % p
    if num == 0 or den == 0:
        raise DivisorCollision(f"Miller line vanished at {X}")
    return num * pow(den, -1, p) % p


def _miller_eval(C: Curve, ell: int, A: Point, D: tuple) -> int:
    """miller_eval for A already known to lie on C."""
    X1, X2 = D
    return _miller_at_point(C, ell, A, X1) * pow(
        _miller_at_point(C, ell, A, X2), -1, C.p
    ) % C.p


def miller_eval(C: Curve, ell: int, A: Point, D: tuple) -> int:
    """f_{ell,A} evaluated at the degree-zero divisor (X1) - (X2).

    D is the pair (X1, X2) of affine points carrying the divisor.
    """
    return _miller_eval(C, ell, C.validate(A), D)


def _aux_points(C: Curve, limit: int = 16):
    """Deterministic sequence of offset points used to dodge zeros/poles."""
    found = 0
    x = 0
    while found < limit:
        y = C.field.sqrt(C.rhs(x))
        if y is not None:
            if y != 0:
                yield (x, y)
                found += 1
                yield (x, C.p - y)
                found += 1
            else:
                yield (x, 0)
                found += 1
        x += 1
        if x >= C.p:
            return


def weil_pairing(C: Curve, ell: int, A: Point, B: Point) -> PairingValue:
    """Weil pairing e_ell(A, B) for A, B in E[ell], valued in mu_ell < F_p*.

    Computed as f_A(D_B) / f_B(D_A) with divisors offset by an auxiliary
    point S, retried over a deterministic sequence of offsets on collision.
    """
    A = C.validate(A)
    B = C.validate(B)
    if _mul(C, ell, A) is not None or _mul(C, ell, B) is not None:
        raise NotTorsion(f"arguments must lie in E[{ell}]")
    return _weil(C, ell, A, B)


def _weil(C: Curve, ell: int, A: Point, B: Point) -> PairingValue:
    """weil_pairing for A, B already known to lie in E[ell] on C."""
    if A is None or B is None:
        return PairingValue(C, ell, 1)
    p = C.p
    last_exc = None
    for S in _aux_points(C):
        try:
            nS = point_neg(C, S)
            BS = _add(C, B, S)
            AmS = _add(C, A, nS)
            if BS is None or AmS is None:
                raise DivisorCollision("degenerate offset")
            # e(A,B) = [f_B(A-S)/f_B(-S)] / [f_A(B+S)/f_A(S)]
            # (of the two inverse-of-each-other orientations, this is the
            # one matching the pinned golden value 464)
            fa = _miller_eval(C, ell, A, (BS, S))
            fb = _miller_eval(C, ell, B, (AmS, nS))
            return PairingValue(C, ell, fb * pow(fa, -1, p) % p)
        except DivisorCollision as exc:
            last_exc = exc
            continue
    if ell == 2:
        # Tiny curves (e.g. #E = 4, every point 2-torsion) leave no room
        # for offset divisors.  On E[2] the pairing is forced: alternating
        # and nondegenerate into {1, -1}, so distinct nonzero arguments
        # pair to -1 and equal ones to 1.
        return PairingValue(C, 2, 1 if A == B else p - 1)
    raise DivisorCollision(
        f"no collision-free offset found for e_{ell}({A}, {B})"
    ) from last_exc
