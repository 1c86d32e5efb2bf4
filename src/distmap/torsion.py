"""ell-torsion bases, discrete logs in E[ell], and order-ell subgroups.

Requires the fully rational case E[ell] <= E(F_p), which forces
t = 2 mod ell and q = 1 mod ell.

ell*X = O is never computed: the Miller walks of e(P, Q) check a basis,
and the walk of dlog2d checks the point it places.
"""

import random
from functools import cached_property

from .curve import (
    Curve,
    FrobeniusData,
    Point,
    PointNotOnCurve,
    _add,
    _mul,
    point_neg,
)
from .field import check_ell
from .pairing import NotInTorsion, _walk, _weil


class TorsionNotRational(ValueError):
    """E[ell] is not contained in E(F_p) for the requested ell."""


class SamplingExhausted(RuntimeError):
    """Random search for a basis point exceeded its trial budget."""


class TorsionContext:
    """A curve together with a prime ell whose full torsion is rational."""

    def __init__(self, ell: int, curve: Curve, frob: FrobeniusData):
        check_ell(ell)
        if ell == curve.p:
            raise ValueError("ell must differ from the field characteristic")
        if frob.order_n % (ell * ell) != 0:
            raise TorsionNotRational(
                f"ell^2 = {ell * ell} does not divide #E = {frob.order_n}"
            )
        # with ell^2 | #E = q + 1 - t, t = 2 mod ell forces q = 1 mod ell
        if frob.trace_t % ell != 2 % ell:
            raise TorsionNotRational(
                f"need t = 2 and q = 1 mod {ell}; got t = {frob.trace_t}, q = {frob.q}"
            )
        self.ell = ell
        self.curve = curve
        self.frob = frob

    def __repr__(self):
        return f"TorsionContext(ell={self.ell}, {self.curve!r})"


class TorsionBasis:
    """A pair (P, Q) generating E[ell] with primitive Weil pairing."""

    def __init__(self, ctx: TorsionContext, P: Point, Q: Point):
        C, ell = ctx.curve, ctx.ell
        P, Q = C.validate(P), C.validate(Q)
        if P is None or Q is None:
            raise NotInTorsion(f"O does not have exact order {ell}")
        # P's Miller walk, kept for the life of the basis: f_P then reads
        # at any point with products only
        walk = _walk(C, ell, P)
        if _weil(C, ell, P, Q, walk) == 1:
            raise NotInTorsion("pairing e(P, Q) = 1: Q lies in <P>, not a basis")
        self.ctx = ctx
        self.curve = C
        self.ell = ell
        self.P = P
        self.Q = Q
        self.p_walk = walk
        # phi -> the equation that decides DDH on <P> with phi (None when
        # phi does not distort <P>), and phi -> the multiples of phi(P),
        # both filled in by ddh.ddh_decide
        self.distorts = {}
        self.phi_multiples = {}

    @cached_property
    def p_multiples(self) -> dict:
        """Table {a*P: a for a in 0 .. ell-1}, built on first use with
        ell - 1 point additions and kept for the life of the basis."""
        return _multiples(self.curve, self.ell, self.P)

    def combine(self, a: int, b: int) -> Point:
        """a*P + b*Q."""
        C = self.curve
        return _add(C, _mul(C, a, self.P), _mul(C, b, self.Q))

    def __repr__(self):
        return f"TorsionBasis(ell={self.ell}, P={self.P}, Q={self.Q})"


def _multiples(C: Curve, ell: int, A: Point) -> dict:
    """Table {a*A: a for a in 0 .. ell-1}, by ell - 1 point additions."""
    table = {None: 0}
    T: Point = None
    for a in range(1, ell):
        T = _add(C, T, A)
        table[T] = a
    return table


def _random_ell_torsion_point(ctx: TorsionContext, rng: random.Random) -> Point:
    """One random point of exact order ell, or None if the draw failed."""
    C = ctx.curve
    ell = ctx.ell
    n = ctx.frob.order_n
    m = n
    while m % ell == 0:
        m //= ell
    x = rng.randrange(C.p)
    try:
        A = C.lift_x(x)
    except PointNotOnCurve:
        return None
    if rng.randrange(2):
        A = (A[0], -A[1] % C.p)
    A = _mul(C, m, A)
    # A now has ell-power order; walk down to exact order ell
    while A is not None:
        B = _mul(C, ell, A)
        if B is None:
            break
        A = B
    return A


def find_torsion_basis(ctx: TorsionContext, seed: int = 0) -> TorsionBasis:
    """Sample a basis (P, Q) of E[ell] deterministically from the seed."""
    rng = random.Random(seed)
    budget = 64 * ctx.ell
    P = None
    for _ in range(budget):
        P = _random_ell_torsion_point(ctx, rng)
        if P is not None:
            break
    else:
        raise SamplingExhausted(f"no order-{ctx.ell} point in {budget} trials")
    for _ in range(budget):
        Q = _random_ell_torsion_point(ctx, rng)
        if Q is None:
            continue
        try:
            return TorsionBasis(ctx, P, Q)
        except NotInTorsion:
            continue
    raise SamplingExhausted(
        f"no independent second generator in {budget} trials (ell={ctx.ell})"
    )


def dlog2d(B: TorsionBasis, R: Point) -> tuple:
    """The unique (a, b) mod ell with R = a*P + b*Q, by baby-step/giant-step.

    The basis caches the multiples of P, so a point of <P> takes one
    lookup and no point addition.  Giant steps then walk R - Q, R - 2Q, ...
    until one lands in the table: at most ell - 1 point additions per
    call, plus ell - 1 once per basis to build the table.  A walk that
    ends without a hit is the E[ell] check: R is not killed by ell.
    """
    C, ell = B.curve, B.ell
    R = C.validate(R)
    table = B.p_multiples
    a = table.get(R)
    if a is not None:
        return (a, 0)
    neg_Q = point_neg(C, B.Q)
    T = R
    for b in range(1, ell):
        T = _add(C, T, neg_Q)
        a = table.get(T)
        if a is not None:
            return (a, b)
    raise NotInTorsion(f"{R} is not killed by {ell}")


def subgroup_lines(ell: int) -> list:
    """Coordinates (a, b) of the canonical generators a*P + b*Q of the
    ell + 1 order-ell subgroups: (0, 1) for <Q>, then (1, k) for
    <P + k*Q>, k = 0 .. ell-1.  The one ordering every census uses."""
    return [(0, 1)] + [(1, k) for k in range(ell)]
