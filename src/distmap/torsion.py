"""ell-torsion bases, discrete logs in E[ell], and order-ell subgroups.

Requires the fully rational case E[ell] <= E(F_p), which forces
t = 2 mod ell and q = 1 mod ell.

No point is checked by computing ell*X = O: the Miller walks of e(P, Q)
check a basis, and the walk of each point dlog2d places checks that point.
"""

import random

from .curve import (
    EXHAUSTIVE_LIMIT,
    Curve,
    FrobeniusData,
    Point,
    _add,
    _count_exhaustive,
    _mul,
    _progression,
    _random_point,
    point_neg,
)
from .field import check_ell
from .pairing import NotInTorsion, _walk, _weil


class TorsionNotRational(ValueError):
    """E[ell] is not contained in E(F_p) for the requested ell."""


class TorsionContext:
    """A curve together with a prime ell whose full torsion is rational."""

    def __init__(self, ell: int, curve: Curve, frob: FrobeniusData):
        check_ell(ell, curve.p)
        if frob.q != curve.p:
            raise ValueError(f"Frobenius data of F_{frob.q}, not of F_{curve.p}")
        if frob.order_n % (ell * ell) != 0:
            raise TorsionNotRational(
                f"ell^2 = {ell * ell} does not divide #E = {frob.order_n}"
            )
        # with ell^2 | #E = q + 1 - t, t = 2 mod ell forces q = 1 mod ell
        if frob.trace_t % ell != 2 % ell:
            raise TorsionNotRational(
                f"need t = 2 and q = 1 mod {ell}; got t = {frob.trace_t}, q = {frob.q}"
            )
        # a wrong #E can keep find_torsion_basis drawing forever; up to
        # EXHAUSTIVE_LIMIT the character sum checks it in p steps
        if curve.p <= EXHAUSTIVE_LIMIT:
            n = _count_exhaustive(curve)
            if n != frob.order_n:
                raise ValueError(
                    f"#E = {frob.order_n} is wrong for {curve!r}: it is {n}"
                )
        self.ell = ell
        self.curve = curve
        self.frob = frob
        self._mu_logs = None  # dlog2d's table of mu_ell, set at its first call

    def __repr__(self):
        return f"TorsionContext(ell={self.ell}, {self.curve!r})"


class TorsionBasis:
    """A basis (P, Q) of E[ell], zeta = e(P, Q) != 1, the walks of P and Q,
    and the DDH rule of each phi on <P>."""

    def __init__(self, ctx: TorsionContext, P: Point, Q: Point):
        C, ell = ctx.curve, ctx.ell
        P, Q = C.validate(P), C.validate(Q)
        if P is None or Q is None:
            raise NotInTorsion(f"O does not have exact order {ell}")
        self._init(ctx, P, _walk(C, ell, P), Q, _walk(C, ell, Q))

    def _init(self, ctx, P, p_walk, Q, q_walk):
        # from valid points and the walks that check them: find_torsion_basis's path
        self.zeta = _weil(ctx.curve, ctx.ell, P, Q, p_walk, q_walk)
        if self.zeta == 1:
            raise NotInTorsion("pairing e(P, Q) = 1: Q lies in <P>, not a basis")
        self._ctx, self.curve, self.ell = ctx, ctx.curve, ctx.ell
        self.P, self.Q, self.p_walk, self.q_walk = P, Q, p_walk, q_walk
        # phi -> (the equation that decides DDH on <P> with phi,
        # {b*P: b*phi(P)} for b in 0 .. ell-1), or None when phi does not
        # distort <P>; filled in by ddh._rule
        self.distorts = {}
        return self

    def __repr__(self):
        return f"TorsionBasis(ell={self.ell}, P={self.P}, Q={self.Q})"


def _order(C: Curve, ell: int, v: int, A: Point) -> tuple:
    """(k, T, T's walk) for A of order ell^k < ell^v, v = v_ell(#E), T =
    ell^(k-1)*A: a multiplication by ell per level, the walk of T at the
    deepest, k = v - 1.  With E[ell] rational no point has order ell^v; a
    point that ell^v does not kill means #E is wrong."""
    T = A
    for k in range(1, v - 1):
        U = _mul(C, ell, T)
        if U is None:
            return k, T, _walk(C, ell, T)
        T = U
    try:
        return v - 1, T, _walk(C, ell, T)
    except NotInTorsion:
        if _mul(C, ell * ell, T) is None:
            raise TorsionNotRational(
                f"E[{ell}] is not rational: a point has order {ell}^{v}"
            ) from None
    raise ValueError(f"#E is wrong for {C!r}: it does not kill a point")


def find_torsion_basis(ctx: TorsionContext, seed: int = 0) -> TorsionBasis:
    """Sample a basis (P, Q) of E[ell] deterministically from the seed.

    A draw is m*X, X a random point and m the part of #E prime to ell.
    The first draw A0, of order ell^k, gives P = ell^(k-1)*A0, and each
    later draw B, of order ell^h, the candidate Q = ell^(h-1)*B.  A Q = s*P
    in <P> does not discard B: for h <= k, B - s*ell^(k-h)*A0 has a shorter
    chain and is tried again; for h > k, B/s becomes A0.  So a draw is lost
    only inside <A0>, of index at least ell in the ell-part when E[ell] is
    rational, and every other loop is bounded by v = v_ell(#E).  Raises
    as `_order` does, whose one walk of each point the basis keeps.
    """
    rng = random.Random(seed)
    C, ell, m = ctx.curve, ctx.ell, ctx.frob.order_n
    v = 0
    while m % ell == 0:
        m, v = m // ell, v + 1
    A0 = table = None
    while True:
        X = _random_point(C, rng)
        B = _mul(C, m, point_neg(C, X) if rng.randrange(2) else X)
        while B is not None:
            h, Q, q_walk = _order(C, ell, v, B)
            if A0 is None:
                A0, k, P, p_walk = B, h, Q, q_walk
                break
            try:
                return TorsionBasis.__new__(TorsionBasis)._init(
                    ctx, P, p_walk, Q, q_walk)
            except NotInTorsion:
                if h == 1:
                    break  # B = Q = s*P reduces to O
            if table is None:
                table = [None, *_progression(C, P, P, ell - 1)]
            s = table.index(Q)
            if h > k:
                A0, k = _mul(C, pow(s, -1, ell), B), h
                break
            B = _add(C, B, _mul(C, -s * ell ** (k - h), A0))


def dlog2d(B: TorsionBasis, R: Point) -> tuple:
    """The unique (a, b) mod ell with R = a*P + b*Q, by the MOV reduction
    (Menezes-Okamoto-Vanstone, IEEE Trans. IT 39, 1993): e(R, Q) = zeta^a
    and e(P, R) = zeta^b.  R's walk, its E[ell] check, is read at P and Q,
    and the basis's walks at R: at most four reads, no point addition; the
    logs are read in the context's table of mu_ell, then turned to base zeta."""
    C, ell = B.curve, B.ell
    R = C.validate(R)
    if R is None:
        return (0, 0)
    try:
        walk = _walk(C, ell, R)
    except NotInTorsion as exc:
        raise NotInTorsion(f"{R} is not killed by {ell}") from exc
    logs = B._ctx._mu_logs or _mu_logs(B._ctx)
    u = pow(logs[B.zeta], -1, ell)
    return (logs[_weil(C, ell, R, B.Q, walk, B.q_walk)] * u % ell,
            logs[_weil(C, ell, B.P, R, B.p_walk, walk)] * u % ell)


def _mu_logs(ctx: TorsionContext) -> dict:
    """Sets and returns the context's table {omega^i: i for i < ell}, omega =
    g^((p-1)/ell) != 1 for the least g >= 2, a fixed generator of mu_ell."""
    p, ell = ctx.curve.p, ctx.ell
    omega = next(w for g in range(2, p) if (w := pow(g, (p - 1) // ell, p)) != 1)
    ctx._mu_logs = {pow(omega, i, p): i for i in range(ell)}
    return ctx._mu_logs


def subgroup_lines(ell: int) -> list:
    """Coordinates (a, b) of the canonical generators a*P + b*Q of the
    ell + 1 order-ell subgroups: (0, 1) for <Q>, then (1, k) for
    <P + k*Q>, k = 0 .. ell-1: the order of the CLI census listing."""
    return [(0, 1)] + [(1, k) for k in range(ell)]
