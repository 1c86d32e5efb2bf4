"""Decision Diffie-Hellman on <P> via a distortion map and the Weil pairing.

Given a triple (R, S, T) of points in <P>, the check

    e_ell(R, phi(S)) == e_ell(P, phi(T))

holds exactly when R = aP, S = bP, T = abP, provided phi moves P out of
its own line (e_ell(P, phi(P)) != 1).
"""

import random

from .curve import Point, PointNotOnCurve, _mul
from .endo import IncompatibleCurve, RationalEndomorphism
from .pairing import NotInTorsion, _weil
from .torsion import TorsionBasis


class NotADistortionMap(ValueError):
    """phi does not distort <P>: e(P, phi(P)) = 1."""


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


def _image(B: TorsionBasis, phi: RationalEndomorphism, V: Point) -> Point:
    """phi(V) for a validated V, checked to lie in E[ell] as a pairing
    argument must."""
    img = phi.image(V)
    if _mul(B.curve, B.ell, img) is not None:
        raise NotInTorsion(f"arguments must lie in E[{B.ell}]")
    return img


def ddh_decide(B: TorsionBasis, phi: RationalEndomorphism, inst: DdhInstance) -> bool:
    """True iff the instance triple is a Diffie-Hellman triple over <P>."""
    C = B.curve
    ell = B.ell
    if C.validate(inst.base) != B.P:
        raise InstanceInvalid("instance base point differs from the basis P")
    # phi's curve and e(P, phi(P)) depend only on the basis and phi: check
    # and pair once per phi
    if phi not in B.distorts:
        if phi.curve != C:
            raise IncompatibleCurve("endomorphism and basis live on different curves")
        e = _weil(C, ell, B.P, _image(B, phi, B.P))
        B.distorts[phi] = not e.is_trivial()
    if not B.distorts[phi]:
        raise NotADistortionMap(
            f"{phi.label} fixes <P>: e(P, phi(P)) = 1, cannot decide DDH"
        )
    # one validate and one table lookup per member; the canonical points
    # returned feed phi and the unchecked pairing directly
    R, S, T = (_member(B, A) for A in inst.triple)
    lhs = _weil(C, ell, R, _image(B, phi, S))
    rhs = _weil(C, ell, B.P, _image(B, phi, T))
    return lhs == rhs


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
