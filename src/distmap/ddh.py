"""Decision Diffie-Hellman on <P> via a distortion map and the Weil pairing.

Given a triple (R, S, T) of points in <P>, the check

    e_ell(R, phi(S)) == e_ell(P, phi(T))

holds exactly when R = aP, S = bP, T = abP, provided phi moves P out of
its own line (e_ell(P, phi(P)) != 1).
"""

import random

from .curve import Point, PointNotOnCurve, scalar_mul
from .endo import RationalEndomorphism, endo_eval
from .pairing import weil_pairing
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


def ddh_decide(B: TorsionBasis, phi: RationalEndomorphism, inst: DdhInstance) -> bool:
    """True iff the instance triple is a Diffie-Hellman triple over <P>."""
    C = B.curve
    ell = B.ell
    if B.curve.validate(inst.base) != B.P:
        raise InstanceInvalid("instance base point differs from the basis P")
    if weil_pairing(C, ell, B.P, endo_eval(phi, B.P)).is_trivial():
        raise NotADistortionMap(
            f"{phi.label} fixes <P>: e(P, phi(P)) = 1, cannot decide DDH"
        )
    R, S, T = inst.triple
    for A in (R, S, T):
        _subgroup_dlog(B, A)
    lhs = weil_pairing(C, ell, R, endo_eval(phi, S))
    rhs = weil_pairing(C, ell, B.P, endo_eval(phi, T))
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
    triple = (
        scalar_mul(C, a, B.P),
        scalar_mul(C, b, B.P),
        scalar_mul(C, c, B.P),
    )
    return DdhInstance(B.P, triple, truth=(a, b, c))
