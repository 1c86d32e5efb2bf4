"""Explicit endomorphisms and their action on E[ell].

An endomorphism is plain data: an image function on points plus the trace
and norm of its minimal polynomial X^2 - trace*X + norm.  The built-in maps:

  sqrt_minus_one  (x, y) -> (-x, i*y) on curves y^2 = x^3 + a4*x with
                  p = 1 mod 4, where i is the smaller square root of -1;
                  minimal polynomial X^2 + 1.
  alpha_701       degree-2 endomorphism of y^2 = x^3 - 35x + 98 over F_701
                  with alpha = 386 and minimal polynomial X^2 - X + 2.
  scalar(k)       multiplication by k, minimal polynomial (X - k)^2.

The first two are rational maps (x, y) -> (x_num/den, y*y_num/den^2) with
one denominator polynomial, so an image costs one field inversion; zeros
of the denominator (kernel points) go to the identity.
"""

import re

from .curve import Curve, Point, PointNotOnCurve, _mul
from .torsion import TorsionBasis, dlog2d


class IncompatibleCurve(ValueError):
    """Catalog endomorphism does not exist on the supplied curve."""


class ImageOffCurve(RuntimeError):
    """Internal consistency failure: a rational map left the curve."""


def _poly_eval(coeffs, x: int, p: int) -> int:
    """Evaluate a polynomial given by coefficients, highest degree first."""
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % p
    return acc


class RationalEndomorphism:
    """An endomorphism as plain data: image maps a validated point (or the
    identity None) to its image, and the minimal polynomial is the monic
    quadratic X^2 - trace*X + norm."""

    def __init__(self, curve: Curve, label: str, trace: int, norm: int, image):
        self.curve = curve
        self.label = label
        self.trace = trace
        self.norm = norm
        self.image = image

    def __repr__(self):
        return f"RationalEndomorphism({self.label!r} on {self.curve!r})"


def _rational_map(C: Curve, label: str, x_num, y_num, den):
    """The image function (x, y) -> (x_num/den, y * y_num/den^2), the
    polynomials evaluated at x; zeros of den go to the identity."""
    p = C.p

    def image(A: Point) -> Point:
        if A is None:
            return None
        x, y = A
        d = _poly_eval(den, x, p)
        if d == 0:
            return None
        inv = pow(d, -1, p)
        xi = _poly_eval(x_num, x, p) * inv % p
        yi = y * _poly_eval(y_num, x, p) % p * inv % p * inv % p
        img = (xi, yi)
        try:
            return C.validate(img)
        except PointNotOnCurve:
            raise ImageOffCurve(f"{label} sent {A} to {img}, off the curve") from None

    return image


_SCALAR_RE = re.compile(r"^scalar\((-?\d+)\)$")


def make_catalog_endo(label: str, curve: Curve) -> RationalEndomorphism:
    """Instantiate a built-in endomorphism on a compatible curve."""
    p = curve.p
    if label == "sqrt_minus_one":
        if curve.a6 != 0:
            raise IncompatibleCurve(
                f"sqrt_minus_one needs y^2 = x^3 + a4*x (a6 = 0), got a6 = {curve.a6}"
            )
        if p % 4 != 1:
            raise IncompatibleCurve(f"sqrt_minus_one needs p = 1 mod 4, got p = {p}")
        i = curve.field.sqrt(p - 1)
        return RationalEndomorphism(
            curve, label, trace=0, norm=1,
            image=_rational_map(curve, label, [-1 % p, 0], [i], [1]),
        )
    if label == "alpha_701":
        if p != 701 or curve.a4 != -35 % 701 or curve.a6 != 98:
            raise IncompatibleCurve(
                "alpha_701 exists only on y^2 = x^3 - 35x + 98 over F_701"
            )
        alpha = 386
        c = (alpha * alpha - 2) % p
        d = 7 * pow(1 - alpha, 4, p) % p
        ia2 = curve.field.inv(alpha * alpha)
        ia3 = curve.field.inv(pow(alpha, 3, p))
        # with den = x + c, x-image alpha^-2 * (x^2 + c*x - d) / den and
        # y-factor alpha^-3 * ((x + c)^2 + d) / den^2
        return RationalEndomorphism(
            curve, label, trace=1, norm=2,
            image=_rational_map(
                curve, label,
                [ia2, ia2 * c % p, ia2 * (-d) % p],
                [ia3, ia3 * 2 * c % p, ia3 * (c * c + d) % p],
                [1, c],
            ),
        )
    m = _SCALAR_RE.match(label)
    if m:
        k = int(m.group(1))
        return RationalEndomorphism(
            curve, label, trace=2 * k, norm=k * k,
            image=lambda A: _mul(curve, k, A),
        )
    raise IncompatibleCurve(f"unknown endomorphism label {label!r}")


def endo_eval(e: RationalEndomorphism, A: Point) -> Point:
    """Image of A; kernel points (denominator zeros) go to the identity."""
    return e.image(e.curve.validate(A))


class TorsionMatrix:
    """2x2 action of an endomorphism on E[ell]; columns are the images
    of the basis points P and Q in (a, b)-coordinates."""

    def __init__(self, ell: int, entries):
        (a, b), (c, d) = entries
        self.ell = ell
        self.entries = ((a % ell, b % ell), (c % ell, d % ell))

    def trace(self) -> int:
        return (self.entries[0][0] + self.entries[1][1]) % self.ell

    def det(self) -> int:
        (a, b), (c, d) = self.entries
        return (a * d - b * c) % self.ell

    def __eq__(self, other):
        return isinstance(other, TorsionMatrix) and other.entries == self.entries

    def __repr__(self):
        (a, b), (c, d) = self.entries
        return f"TorsionMatrix(({a} {b} / {c} {d}) mod {self.ell})"


def endo_matrix(e: RationalEndomorphism, B: TorsionBasis) -> TorsionMatrix:
    """Action matrix of e on E[ell] relative to the basis (P, Q)."""
    if e.curve != B.curve:
        raise IncompatibleCurve("endomorphism and basis live on different curves")
    aP, bP = dlog2d(B, endo_eval(e, B.P))
    aQ, bQ = dlog2d(B, endo_eval(e, B.Q))
    return TorsionMatrix(B.ell, ((aP, aQ), (bP, bQ)))


def char_poly_mod_ell(M: TorsionMatrix) -> tuple:
    """Coefficients (1, c1, c0) of X^2 - tr(M)*X + det(M) mod ell."""
    return (1, -M.trace() % M.ell, M.det() % M.ell)


def quadratic_roots_mod(coeffs: tuple, ell: int) -> list:
    """Sorted roots in Z/ell, ell prime, of c2*X^2 + c1*X + c0 given as
    (c2, c1, c0), every x when all three are 0 mod ell: a scan of Z/ell,
    at most field.ELL_CAP steps."""
    c2, c1, c0 = coeffs
    t = -c0 % ell
    return [x for x in range(ell) if (c2 * x + c1) * x % ell == t]
