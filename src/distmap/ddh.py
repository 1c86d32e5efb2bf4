"""Decision Diffie-Hellman on <P> via a distortion map and a pairing.

phi distorts <P> when it moves P out of its own line: phi(P) not in <P>,
one lookup in the table of the multiples of P.  Then for a triple
(R, S, T) of points in <P>, the check

    e_ell(R, phi(S)) == e_ell(P, phi(T))

holds exactly when R = aP, S = bP, T = abP.  The reduced Tate pairing t
is bilinear too, so when t(phi(P), P) != 1 the same holds for

    t(phi(S), R) == t(phi(T), P),

at one Miller loop per side where the Weil pairing takes two.  But
t(phi(P), P) can be 1 for a phi that distorts <P>; that phi keeps the Weil
equation.  The verdict and the equation are chosen once per basis and phi.

Each image of phi is a Miller-loop base in either equation, and its loop
checks that it lies in E[ell]; nothing multiplies an image by ell.
"""

import random

from .curve import Point, PointNotOnCurve, _mul
from .endo import IncompatibleCurve, RationalEndomorphism
from .pairing import _tate, _tate_unreduced, _weil
from .torsion import TorsionBasis


class NotADistortionMap(ValueError):
    """phi does not distort <P>: phi(P) lies in <P>."""


class InstanceInvalid(ValueError):
    """A triple member is not in the subgroup generated by P."""


class DdhInstance:
    """Base point P and a candidate triple (R, S, T) inside <P>."""

    def __init__(self, base: Point, triple: tuple, truth=None):
        self.base = base
        self.triple = tuple(triple)
        self.truth = truth

    def __repr__(self):
        return f"DdhInstance(base={self.base}, triple={self.triple})"


def _member(B: TorsionBasis, A: Point) -> Point:
    """A, validated, if it lies in <P>; raises InstanceInvalid otherwise.

    The basis's table of the multiples of P holds exactly the points of
    <P>, so membership is one lookup."""
    try:
        V = B.curve.validate(A)
    except PointNotOnCurve as exc:
        raise InstanceInvalid(f"{A} is not on the curve") from exc
    if V not in B.p_multiples:
        raise InstanceInvalid(f"{A} is not in <P>")
    return V


def _weil_equation(B: TorsionBasis, R: Point, X: Point, Y: Point) -> bool:
    """e(R, X) == e(P, Y): two Weil pairings, four Miller loops."""
    return _weil(B.curve, B.ell, R, X) == _weil(B.curve, B.ell, B.P, Y)


def _tate_equation(B: TorsionBasis, R: Point, X: Point, Y: Point) -> bool:
    """t(X, R) == t(Y, P), as one ratio raised once: two Miller loops,
    based at the images X and Y, one inversion and one power."""
    C, ell, p = B.curve, B.ell, B.curve.p
    lhs = _tate_unreduced(C, ell, X, R)
    rhs = _tate_unreduced(C, ell, Y, B.P)
    return pow(lhs * pow(rhs, -1, p), (p - 1) // ell, p) == 1


def _rule(B: TorsionBasis, phi: RationalEndomorphism):
    """The equation that decides DDH on <P> with phi, or None when phi does
    not distort <P>; chosen once per basis and phi, kept on the basis."""
    if phi not in B.distorts:
        if phi.curve != B.curve:
            raise IncompatibleCurve("endomorphism and basis live on different curves")
        C, ell, P = B.curve, B.ell, B.P
        image = phi.image(P)
        if image in B.p_multiples:
            B.distorts[phi] = None
        elif _tate(C, ell, image, P) != 1:
            B.distorts[phi] = _tate_equation
        else:
            B.distorts[phi] = _weil_equation
    return B.distorts[phi]


def ddh_decide(B: TorsionBasis, phi: RationalEndomorphism, inst: DdhInstance) -> bool:
    """True iff the instance triple is a Diffie-Hellman triple over <P>."""
    if B.curve.validate(inst.base) != B.P:
        raise InstanceInvalid("instance base point differs from the basis P")
    equation = _rule(B, phi)
    if equation is None:
        raise NotADistortionMap(
            f"{phi.label} fixes <P>: e(P, phi(P)) = 1, cannot decide DDH"
        )
    # one validate and one table lookup per member; the canonical points
    # returned feed phi and the pairings, whose loops check the images
    R, S, T = (_member(B, A) for A in inst.triple)
    return equation(B, R, phi.image(S), phi.image(T))


def ddh_sample(B: TorsionBasis, honest: bool, seed: int = 0) -> DdhInstance:
    """A random DDH instance on <P>: honest (aP, bP, abP) or a forgery
    (aP, bP, cP) with c != ab.  Deterministic under the seed."""
    rng = random.Random(seed)
    ell = B.ell
    C = B.curve
    a = rng.randrange(1, ell)
    b = rng.randrange(1, ell)
    if honest:
        c = a * b % ell
    else:
        c = rng.choice([k for k in range(ell) if k != a * b % ell])
    triple = (_mul(C, a, B.P), _mul(C, b, B.P), _mul(C, c, B.P))
    return DdhInstance(B.P, triple, truth=(a, b, c))
