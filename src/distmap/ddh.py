"""Decision Diffie-Hellman on <P> via a distortion map and a pairing.

phi distorts <P> when phi(P) lies outside <P>, that is when
e_ell(P, phi(P)) != 1 (Verheul, Eurocrypt 2001; Galbraith-Rotger, LMS
JCM 7, 2004).  Then for a triple (R, S, T) of points in <P>, the check

    e_ell(R, phi(S)) == e_ell(P, phi(T))

holds exactly when R = aP, S = bP, T = abP.  The reduced Tate pairing t
is bilinear too, so when t(P, phi(P)) != 1 the same holds for

    t(R, phi(S)) == t(P, phi(T)).

P is the same for the life of a basis, so its Miller walk is recorded
once (TorsionBasis.p_walk) and f_P is read at phi(T) with products only:
the Tate equation takes one walk, at R.  But t(P, phi(P)) can be 1 for a
phi that distorts <P>; that phi keeps the Weil equation, three walks, P's
recorded one read at phi(T).  The verdict and the equation are chosen once
per basis and phi.

phi is read once per basis and phi, at P.  For S = bP an endomorphism
gives phi(S) = b*phi(P), and the equations read phi only at S and T, so
the table {b*P: b*phi(P)}, two progressions built side by side, is kept
with the equation.  Its keys are <P>; a decision reads phi(S) and phi(T)
from it without evaluating phi.  By bilinearity, for either pairing,
e(aP, b*X) == e(P, c*X) iff ab = c mod ell for any X with e(P, X) != 1,
so the decision is exact even for a map that is no homomorphism away
from P.
"""

import random

from .curve import Curve, Point, PointNotOnCurve, _mul, _progression
from .endo import IncompatibleCurve, RationalEndomorphism
from .pairing import _read, _tate, _walk, _weil
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


def _member(C: Curve, images: dict, A: Point) -> Point:
    """A, validated, if it lies in <P>, the keys of phi's images:
    one lookup; raises InstanceInvalid otherwise."""
    try:
        V = C.validate(A)
    except PointNotOnCurve as exc:
        raise InstanceInvalid(f"{A} is not on the curve") from exc
    if V not in images:
        raise InstanceInvalid(f"{A} is not in <P>")
    return V


def _weil_equation(B: TorsionBasis, R: Point, X: Point, Y: Point) -> bool:
    """e(R, X) == e(P, Y): two Weil pairings, three walks, as P's recorded
    walk is read at Y."""
    C, ell = B.curve, B.ell
    return _weil(C, ell, R, X) == _weil(C, ell, B.P, Y, B.p_walk)


def _tate_equation(B: TorsionBasis, R: Point, X: Point, Y: Point) -> bool:
    """t(R, X) == t(P, Y), as one ratio raised once: one walk, at R, read
    at X, P's recorded walk read at Y, one inversion and one power.

    X and Y lie in <phi(P)>, which meets <P> in O only, so neither read
    meets a vanishing line."""
    C, ell, p = B.curve, B.ell, B.curve.p
    lnum, lden = (1, 1) if R is None or X is None else _read(C, _walk(C, ell, R), X)
    rnum, rden = (1, 1) if Y is None else _read(C, B.p_walk, Y)
    ratio = lnum * rden * pow(lden * rnum, -1, p)
    return pow(ratio, (p - 1) // ell, p) == 1


def _rule(B: TorsionBasis, phi: RationalEndomorphism):
    """(equation, images) that decide DDH on <P> with phi, or None when phi
    does not distort <P>, chosen once per basis and phi and kept on it.
    The verdict e(P, phi(P)) != 1 walks nothing for phi(P) in <P>, where a
    line of P's recorded walk vanishes; else it walks phi(P), its E[ell]
    check.  images is {b*P: b*phi(P)}: phi is evaluated at P only."""
    if phi not in B.distorts:
        if phi.curve != B.curve:
            raise IncompatibleCurve("endomorphism and basis live on different curves")
        C, ell, P = B.curve, B.ell, B.P
        image = phi.image(P)
        if _weil(C, ell, P, image, B.p_walk) == 1:
            B.distorts[phi] = None
            return None
        images = dict(zip([None, *_progression(C, P, P, ell - 1)],
                          [None, *_progression(C, image, image, ell - 1)]))
        tate = _tate(C, ell, P, image, B.p_walk) != 1
        B.distorts[phi] = (_tate_equation if tate else _weil_equation, images)
    return B.distorts[phi]


def ddh_decide(B: TorsionBasis, phi: RationalEndomorphism, inst: DdhInstance) -> bool:
    """True iff the instance triple is a Diffie-Hellman triple over <P>."""
    if B.curve.validate(inst.base) != B.P:
        raise InstanceInvalid("instance base point differs from the basis P")
    rule = _rule(B, phi)
    if rule is None:
        raise NotADistortionMap(
            f"{phi.label} does not distort <P>: phi(P) lies in <P>, cannot decide DDH"
        )
    equation, images = rule
    # one validate and one lookup in phi's images per member; the
    # canonical points returned key those images
    R, S, T = (_member(B.curve, images, A) for A in inst.triple)
    return equation(B, R, images[S], images[T])


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
