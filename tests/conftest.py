import sys

import pytest
from hypothesis import settings

from distmap import (
    Curve,
    FrobeniusData,
    PrimeField,
    TorsionBasis,
    TorsionContext,
    count_points,
    find_torsion_basis,
    make_catalog_endo,
    point_add,
    point_neg,
)

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
    the list of the argument tuples of every call from now on."""

    def count(owner, name):
        fn, calls = getattr(owner, name), []

        def counted(*args):
            calls.append(args)
            return fn(*args)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "distmap"]
        for where in (owner, *modules):
            if getattr(where, name, None) is fn:
                monkeypatch.setattr(where, name, counted)
        return calls

    return count


def taken(*calls):
    """The lengths of the call lists, which are then cleared."""
    counts = tuple(map(len, calls))
    for c in calls:
        c.clear()
    return counts


def lift(C, x):
    """(x, the smaller square root of x^3 + a4*x + a6), for 0 <= x < p; the
    root is None when no point of C has that x."""
    return (x, C.field.sqrt(C.rhs(x)))


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
    if ell == 3:
        # y^2 = x^3 + 2 over F_7: E(F_7) = E[3], order 9, t = -1 = 2 mod 3
        C = Curve(PrimeField(7), 0, 2)
        fd = count_points(C)
    elif ell == 7:
        # y^2 = x^3 + 3 over F_43: order 49, t = -5 = 2 mod 7
        C = Curve(PrimeField(43), 0, 3)
        fd = count_points(C)
    elif ell == 31:
        C = Curve(PrimeField(P31), A31, 0)
        fd = FrobeniusData(P31, N31, P31 + 1 - N31)
    else:
        C = Curve(PrimeField(701), -35, 98)
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
