"""Decision Diffie-Hellman on <P> via a distortion map and the Weil pairing.

Given a triple (R, S, T) of points in <P>, the check

    e_ell(R, phi(S)) == e_ell(P, phi(T))

holds exactly when R = aP, S = bP, T = abP, provided phi moves P out of
its own line (e_ell(P, phi(P)) != 1).
"""

import random

from .curve import Point, PointNotOnCurve, _mul
from .endo import RationalEndomorphism, endo_eval
from .pairing import NotTorsion, _weil
from .torsion import NotInTorsion, TorsionBasis, dlog2d


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


def _subgroup_dlog(B: TorsionBasis, A: Point) -> int:
    """dlog of A in <P>; raises InstanceInvalid outside the subgroup."""
    try:
        a, b = dlog2d(B, A)
    except (NotInTorsion, PointNotOnCurve) as exc:
        raise InstanceInvalid(f"{A} is not in E[{B.ell}]") from exc
    if b != 0:
        raise InstanceInvalid(f"{A} is not in <P> (Q-component {b})")
    return a


def _image(B: TorsionBasis, phi: RationalEndomorphism, A: Point) -> Point:
    """phi(A), checked to lie in E[ell] as a pairing argument must."""
    img = endo_eval(phi, A)
    if phi.curve != B.curve:
        # a map given on another curve: its image must still lie on ours
        img = B.curve.validate(img)
    if _mul(B.curve, B.ell, img) is not None:
        raise NotTorsion(f"arguments must lie in E[{B.ell}]")
    return img


def ddh_decide(B: TorsionBasis, phi: RationalEndomorphism, inst: DdhInstance) -> bool:
    """True iff the instance triple is a Diffie-Hellman triple over <P>."""
    C = B.curve
    ell = B.ell
    if C.validate(inst.base) != B.P:
        raise InstanceInvalid("instance base point differs from the basis P")
    # e(P, phi(P)) depends only on the basis and phi: pair once per phi
    if phi not in B.distorts:
        e = _weil(C, ell, B.P, _image(B, phi, B.P))
        B.distorts[phi] = not e.is_trivial()
    if not B.distorts[phi]:
        raise NotADistortionMap(
            f"{phi.label} fixes <P>: e(P, phi(P)) = 1, cannot decide DDH"
        )
    R, S, T = inst.triple
    for A in (R, S, T):
        _subgroup_dlog(B, A)
    # each of R, S and T was one lookup in the basis's table of the
    # multiples of P; validating R once more only canonicalizes its
    # coordinates for the unchecked pairing
    lhs = _weil(C, ell, C.validate(R), _image(B, phi, S))
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
