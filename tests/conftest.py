import builtins
import random
import signal
import sys
from contextlib import contextmanager
from functools import cache, cached_property
from itertools import product
from math import isqrt

import pytest
from hypothesis import settings

from distmap import (
    Curve,
    FrobeniusData,
    PrimeField,
    RationalEndomorphism,
    TorsionBasis,
    TorsionContext,
    count_points,
    find_torsion_basis,
    make_catalog_endo,
    point_add,
    point_neg,
)
from distmap.curve import _add, _mul

# CI runs the property tests under this profile (--hypothesis-profile=ci):
# the examples depend on the code alone, so a red run replays locally
settings.register_profile("ci", derandomize=True, deadline=None)

# y^2 = x^3 + A*x over F_p with E[31] rational: CM by Z[i] with Frobenius
# pi = (1 + 31c) + 31d*i, so #E = N(pi - 1) = 31^2 (c^2 + d^2).  31 is
# inert in Z[i], so [i] distorts every order-31 subgroup.
P31, A31, N31 = 1437396469, 529490715, 1437396530

# y^2 = x^3 + A*x over F_p with #E = 20 * 97^4 and ell-part Z/97 x Z/97^3:
# a draw walked down to order 97 lies in <P> about 96 times in 97
P97, A97, N97 = 1770504529, 1255580575, 1770585620


@pytest.fixture()
def count_calls(monkeypatch):
    """count(owner, name) wraps owner.name, under owner and under every
    distmap module that binds the same function by that name, and returns
    the list of the argument tuples of every call from now on.  A builtin,
    count(builtins, "pow"), is shadowed in every distmap module instead:
    the modules find it through their globals, and no other code sees it."""

    def count(owner, name):
        fn, calls = getattr(owner, name), []

        def counted(*args):
            calls.append(args)
            return fn(*args)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "distmap"]
        if owner is builtins:
            where = modules
        else:
            where = [w for w in (owner, *modules) if getattr(w, name, None) is fn]
        for w in where:
            monkeypatch.setattr(w, name, counted, raising=False)
        return calls

    return count


def taken(*calls):
    """The lengths of the call lists, which are then cleared."""
    counts = tuple(map(len, calls))
    for c in calls:
        c.clear()
    return counts


def context(B):
    """A new TorsionContext of the basis B, with #E counted afresh."""
    return TorsionContext(B.ell, B.curve, count_points(B.curve))


def shifted_endo(e, k):
    """The endomorphism A -> e(A) + k*A (add k times the identity map)."""
    return RationalEndomorphism(
        e.curve, f"{e.label}+scalar({k})",
        trace=e.trace + 2 * k, norm=e.norm + e.trace * k + k * k,
        image=lambda A: _add(e.curve, e.image(A), _mul(e.curve, k, A)),
    )


def lift(C, x):
    """(x, the smaller square root of x^3 + a4*x + a6), for 0 <= x < p; the
    root is None when no point of C has that x."""
    return (x, C.field.sqrt(C.rhs(x)))


def combine(B, a, b):
    """a*P + b*Q on the basis B."""
    return _add(B.curve, _mul(B.curve, a, B.P), _mul(B.curve, b, B.Q))


def torsion_points(B):
    """{(a, b): a*P + b*Q} for every a, b mod ell, on the basis B."""
    return {(a, b): combine(B, a, b) for a, b in product(range(B.ell), repeat=2)}


def random_points(C, seed, k):
    """k points lift(C, x) over seeded random x."""
    rng, points = random.Random(seed), []
    while len(points) < k:
        if (A := lift(C, rng.randrange(C.p)))[1] is not None:
            points.append(A)
    return points


@contextmanager
def deadline(seconds):
    """Turns a hang inside the block into a failing TimeoutError."""

    def alarm(signum, frame):
        raise TimeoutError(f"no answer in {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def primes(lo, hi):
    """The primes p with lo <= p < hi, by trial division."""
    return [p for p in range(max(lo, 2), hi)
            if all(p % d for d in range(2, isqrt(p) + 1))]


@cache
def _roots(p):
    """roots[v]: the square roots of v mod p, the smaller first."""
    roots = [[] for _ in range(p)]
    for y in range(p):
        roots[y * y % p].append(y)
    return roots


class SmallCurve:
    """The facts of y^2 = x^3 + a4*x + a6 over a small field F by brute
    force, each found by enumeration on first use and kept: none comes
    from the library's counting, torsion context or basis search (E[ell]
    takes the group law, _mul, on each point)."""

    def __init__(self, F, a4, a6):
        self.field, self.a4, self.a6 = F, a4, a6

    @cached_property
    def curve(self):
        return Curve(self.field, self.a4, self.a6)

    def _roots_over_x(self):
        """(x, the square roots of x^3 + a4*x + a6, the smaller first), x < p."""
        p, a4, a6, roots = self.field.p, self.a4, self.a6, _roots(self.field.p)
        return ((x, roots[(x * x * x + a4 * x + a6) % p]) for x in range(p))

    @cached_property
    def points(self):
        """O, then (x, y) and (x, -y) by x, the smaller root y first."""
        return [None] + [(x, y) for x, ys in self._roots_over_x() for y in ys]

    @cached_property
    def lifts(self):
        """lift(C, x) for each x that has a point, by x."""
        return [(x, ys[0]) for x, ys in self._roots_over_x() if ys]

    @cached_property
    def order(self):
        """#E(F_p), counted without listing the points."""
        return 1 + sum(len(ys) for _, ys in self._roots_over_x())

    @property
    def ordinary(self):
        """t = p + 1 - #E is not 0 mod p."""
        return (self.field.p + 1 - self.order) % self.field.p != 0

    @property
    def frob(self):
        p = self.field.p
        return FrobeniusData(p, self.order, p + 1 - self.order)

    @cache
    def torsion(self, ell):
        """The points of E[ell], O first, in the order of points; -A lies
        in E[ell] with A, so one multiplication per x."""
        killed = [(x, ys) for x, ys in self._roots_over_x()
                  if ys and _mul(self.curve, ell, (x, ys[0])) is None]
        return [None] + [(x, y) for x, ys in killed for y in ys]

    def rational(self, ell):
        """E[ell] has ell^2 points over F_p (ell^2 | #E, the cheaper test,
        first)."""
        return self.order % (ell * ell) == 0 and len(self.torsion(ell)) == ell * ell


@cache
def small_curves(p):
    """A SmallCurve for every nonsingular y^2 = x^3 + a4*x + a6 over F_p,
    in (a4, a6) order."""
    F = PrimeField(p)
    return [SmallCurve(F, a4, a6) for a4, a6 in product(range(p), repeat=2)
            if (4 * a4 ** 3 + 27 * a6 ** 2) % p]


@cache
def small_curve(C):
    """The SmallCurve of one curve C, kept apart from small_curves' tables."""
    return SmallCurve(C.field, C.a4, C.a6)


def dlog_reference(B, R):
    """The (a, b) with R = a*P + b*Q by baby-step/giant-step on the checked
    group law, with no pairing: a table of the multiples of P, then R - Q,
    R - 2Q, ... until one lands in it; None when none does, as R then lies
    outside E[ell]."""
    C = B.curve
    table, aP = {}, None
    for a in range(B.ell):
        table[aP] = a
        aP = point_add(C, aP, B.P)
    T, neg_Q = R, point_neg(C, B.Q)
    for b in range(B.ell):
        if T in table:
            return (table[T], b)
        T = point_add(C, T, neg_Q)
    return None


def _fresh_basis(ell):
    """A newly built basis, with nothing cached yet, for ell in
    {2, 3, 5, 7, 31}."""
    if ell == 31:
        C, fd = Curve(PrimeField(P31), A31, 0), FrobeniusData(P31, N31, P31 + 1 - N31)
    else:
        # y^2 = x^3 + 2 over F_7: E(F_7) = E[3], order 9, t = -1 = 2 mod 3;
        # y^2 = x^3 + 3 over F_43: order 49, t = -5 = 2 mod 7
        p, a4, a6 = {3: (7, 0, 2), 7: (43, 0, 3)}.get(ell, (701, -35, 98))
        C = Curve(PrimeField(p), a4, a6)
        fd = count_points(C)
    return find_torsion_basis(TorsionContext(ell, C, fd))


@pytest.fixture(scope="session")
def fresh_basis():
    return _fresh_basis


@pytest.fixture(scope="session")
def basis31():
    return _fresh_basis(31)


@pytest.fixture(scope="session")
def ctx97():
    C = Curve(PrimeField(P97), A97, 0)
    return TorsionContext(97, C, FrobeniusData(P97, N97, P97 + 1 - N97))


@pytest.fixture(scope="session")
def basis97(ctx97):
    return find_torsion_basis(ctx97)


@pytest.fixture(scope="session")
def ex2_curve():
    return Curve(PrimeField(701), -35, 98)


@pytest.fixture(scope="session")
def ex2_frob(ex2_curve):
    return count_points(ex2_curve)


@pytest.fixture(scope="session")
def basis5(ex2_curve, ex2_frob):
    ctx = TorsionContext(5, ex2_curve, ex2_frob)
    return TorsionBasis(ctx, (224, 31), (573, 450))


@pytest.fixture(scope="session")
def basis2(ex2_curve, ex2_frob):
    ctx = TorsionContext(2, ex2_curve, ex2_frob)
    return TorsionBasis(ctx, (319, 0), (389, 0))


@pytest.fixture(scope="session")
def alpha(ex2_curve):
    return make_catalog_endo("alpha_701", ex2_curve)
