import builtins
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    A31,
    N31,
    P31,
    combine,
    context,
    deadline,
    dlog_reference,
    lift,
    primes,
    small_curve,
    small_curves,
    taken,
    torsion_points,
)
from distmap import curve, pairing, torsion
from distmap.cli import main, parse_point
from distmap.curve import (
    Curve,
    FrobeniusData,
    count_points,
    scalar_mul,
)
from distmap.endo import endo_matrix, make_catalog_endo
from distmap.field import PrimeField
from distmap.pairing import _weil, weil_pairing
from distmap.torsion import (
    NotInTorsion,
    TorsionBasis,
    TorsionContext,
    TorsionNotRational,
    dlog2d,
    find_torsion_basis,
)


def _ops(count_calls):
    """The call lists of Miller walks and reads, of point additions (each
    _add and each batched _add_each call) and of _mul, under each name the
    library imports them by."""
    return [count_calls(module, name) for module, name in (
        (pairing, "_walk"), (pairing, "_read"), (curve, "_add"),
        (curve, "_add_each"), (curve, "_mul"))]


def test_paper_basis_ell5_validates(basis5):
    assert basis5.P == (224, 31)
    assert basis5.Q == (573, 450)
    assert _weil(basis5.curve, 5, basis5.P, basis5.Q) != 1


def test_paper_basis_ell2_validates(basis2):
    assert _weil(basis2.curve, 2, basis2.P, basis2.Q) == 700


def test_ell3_not_rational(ex2_curve, ex2_frob):
    with pytest.raises(TorsionNotRational):
        TorsionContext(3, ex2_curve, ex2_frob)  # 9 does not divide 700


def test_congruence_guard():
    # y^2 = x^3 + x + 1 over F_29 has order 36 but t = -6 = 0 mod 3
    C = Curve(PrimeField(29), 1, 1)
    fd = count_points(C)
    assert fd.order_n % 9 == 0
    with pytest.raises(TorsionNotRational):
        TorsionContext(3, C, fd)


def test_dependent_pair_rejected(ex2_curve, ex2_frob):
    ctx = TorsionContext(5, ex2_curve, ex2_frob)
    P = (224, 31)
    with pytest.raises(NotInTorsion):
        TorsionBasis(ctx, P, scalar_mul(ex2_curve, 2, P))


@pytest.mark.parametrize("A", [(319, 0), (693, 229)])  # orders 2 and 7
def test_basis_point_outside_torsion_rejected(ex2_curve, ex2_frob, A):
    ctx = TorsionContext(5, ex2_curve, ex2_frob)
    message = re.escape(f"{A} does not have exact order 5")
    for P, Q in ((A, (573, 450)), ((224, 31), A)):
        with pytest.raises(NotInTorsion, match=message):
            TorsionBasis(ctx, P, Q)


def test_find_basis_deterministic(ex2_curve, ex2_frob):
    ctx = TorsionContext(5, ex2_curve, ex2_frob)
    B1 = find_torsion_basis(ctx, seed=7)
    B2 = find_torsion_basis(ctx, seed=7)
    assert (B1.P, B1.Q) == (B2.P, B2.Q)


@pytest.mark.parametrize("ell", [2, 5])
def test_find_basis_valid(ex2_curve, ex2_frob, ell):
    ctx = TorsionContext(ell, ex2_curve, ex2_frob)
    B = find_torsion_basis(ctx)
    assert scalar_mul(ex2_curve, ell, B.P) is None
    assert scalar_mul(ex2_curve, ell, B.Q) is None
    assert weil_pairing(ex2_curve, ell, B.P, B.Q) != 1


def test_dlog_identity(basis5):
    assert dlog2d(basis5, None) == (0, 0)


def test_dlog_constructed(basis5):
    assert dlog2d(basis5, combine(basis5, 2, 3)) == (2, 3)


def test_dlog_paper_image(basis5):
    # [alpha]P = (173,194) = 0*P + 2*Q (first matrix column)
    assert dlog2d(basis5, (173, 194)) == (0, 2)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_dlog_round_trip_exhaustive(fresh_basis, ell):
    B = fresh_basis(ell)
    for (a, b), R in torsion_points(B).items():
        assert dlog2d(B, R) == dlog_reference(B, R) == (a, b)


@given(a=st.integers(0, 30), b=st.integers(0, 30))
def test_dlog_round_trip_ell31(basis31, a, b):
    assert dlog2d(basis31, combine(basis31, a, b)) == (a, b)


@given(a=st.integers(0, 96), b=st.integers(0, 96))
def test_dlog_round_trip_ell97(basis97, a, b):
    assert dlog2d(basis97, combine(basis97, a, b)) == (a, b)


def test_dlog_differential_small_curves():
    # every y^2 = x^3 + a4*x + a6 over F_p, p < 60, with E[ell] rational
    # for ell in {2, 3, 5}: the pairing log agrees with the baby-step/
    # giant-step log on every point of E[ell]
    bases = 0
    with deadline(60):
        for ctx, rational in _contexts(60):
            if not rational:
                continue
            B = find_torsion_basis(ctx)
            bases += 1
            for (a, b), R in torsion_points(B).items():
                assert dlog2d(B, R) == dlog_reference(B, R) == (a, b), ctx
    assert bases == 2449


def test_dlog_rejects_non_torsion(basis5, ex2_curve):
    # a point of order 7 on the F_701 curve (700 = 4 * 25 * 7)
    A = scalar_mul(ex2_curve, 100, lift(ex2_curve, 2))
    with pytest.raises(NotInTorsion, match="is not killed by 5"):
        dlog2d(basis5, A)


def test_dlog_rejects_order_ell_squared():
    # y^2 = x^3 + 2x + 111 over F_131: E(F_131) = Z/5 x Z/25
    C = Curve(PrimeField(131), 2, 111)
    B = find_torsion_basis(TorsionContext(5, C, count_points(C)))
    A = (1, 30)
    assert scalar_mul(C, 5, A) is not None and scalar_mul(C, 25, A) is None
    with pytest.raises(NotInTorsion):
        dlog2d(B, A)


def test_dlog_rejects_order_prime_to_ell31(basis31):
    C = basis31.curve
    A = scalar_mul(C, 31 * 31, lift(C, 4))
    assert A is not None and scalar_mul(C, N31 // (31 * 31), A) is None
    with pytest.raises(NotInTorsion):
        dlog2d(basis31, A)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 31])
def test_dlog_op_counts(count_calls, fresh_basis, ell):
    B = fresh_basis(ell)
    points, ctx = torsion_points(B), context(B)
    ops = _ops(count_calls)
    # the basis walks P and Q once each, for e(P, Q), and neither it nor
    # dlog2d multiplies a point by ell: the walks are the E[ell] checks
    B = TorsionBasis(ctx, B.P, B.Q)
    assert taken(*ops) == (2, 2, 0, 0, 0)
    for (a, b), R in points.items():
        assert dlog2d(B, R) == (a, b)
        # O takes nothing; any other point one walk, read at P and at Q,
        # with the basis's walks read at the point: four reads, or three
        # where a line of one walk vanishes at the other point, which
        # happens only for a point of <P> or <Q>
        counts = taken(*ops)
        if R is None:
            assert counts == (0, 0, 0, 0, 0)
        elif a and b:
            assert counts == (1, 4, 0, 0, 0), (a, b)
        else:
            assert counts in {(1, 3, 0, 0, 0), (1, 4, 0, 0, 0)}, (a, b)


def test_endo_matrix_op_counts(count_calls, basis31):
    # [i] at ell = 31 moves P and Q off <P> and <Q>: two walks, eight reads
    phi = make_catalog_endo("sqrt_minus_one", basis31.curve)
    B = TorsionBasis(context(basis31), basis31.P, basis31.Q)
    ops = _ops(count_calls)
    M = endo_matrix(phi, B)
    assert all(x for row in M.entries for x in row)
    assert taken(*ops) == (2, 8, 0, 0, 0)


def test_find_basis_one_pairing_per_candidate(count_calls, ex2_curve, ex2_frob):
    draws, pairings = count_calls(torsion, "_order"), count_calls(torsion, "_weil")
    ctx = TorsionContext(2, ex2_curve, ex2_frob)
    candidates = 0
    for seed in range(20):
        find_torsion_basis(ctx, seed)
        # the ell-part is (Z/2)^2: the first draw m*X != O is P, every later
        # one a Q candidate, and one in <P> reduces to O
        d, w = taken(draws, pairings)
        assert w == d - 1
        candidates += d - 1
    assert candidates > 20  # some seeds drew a Q inside <P> and retried


# find_torsion_basis(ctx, seed) for seeds 0..19, as (P, Q): ex2 at ell = 5
# and the ell = 31 test curve.  Fixed values, so that a change to the draw
# (which points, which rng calls) shows here.
BASES_EX2_ELL5 = [
    ((469, 620), (324, 429)), ((573, 450), (477, 322)),
    ((173, 507), (477, 322)), ((463, 495), (173, 507)),
    ((324, 272), (463, 495)), ((135, 309), (62, 636)),
    ((477, 322), (62, 636)), ((463, 206), (135, 392)),
    ((198, 50), (325, 598)), ((224, 670), (62, 65)),
    ((325, 103), (135, 309)), ((62, 636), (82, 252)),
    ((173, 194), (463, 495)), ((324, 429), (135, 309)),
    ((62, 636), (325, 103)), ((477, 379), (573, 251)),
    ((324, 272), (62, 65)), ((135, 392), (463, 206)),
    ((173, 507), (463, 495)), ((469, 81), (463, 495)),
]
BASES_ELL31 = [
    ((302694661, 1375251924), (711876631, 471181071)),
    ((26913014, 260370042), (498507305, 795424706)),
    ((240059241, 201248045), (109340709, 788411746)),
    ((598901968, 28591959), (799262874, 388436000)),
    ((1090794499, 480455966), (838723557, 722284767)),
    ((901255623, 1305489729), (502999201, 868852766)),
    ((1106760666, 331071218), (1137144431, 478121978)),
    ((1224445102, 359622397), (1370510346, 860601549)),
    ((505619505, 281654975), (905924028, 448041177)),
    ((425931516, 243636209), (210591925, 734268319)),
    ((1410483455, 170667971), (772544915, 714175523)),
    ((1098131965, 1355797352), (531472441, 891473529)),
    ((1303177421, 738256271), (689316746, 809149113)),
    ((881185135, 853767512), (1155441430, 980379138)),
    ((20223272, 1385895941), (24810334, 999005472)),
    ((169893424, 897677743), (131486583, 243509015)),
    ((1405970127, 781401423), (905924028, 448041177)),
    ((844536818, 1316754723), (1012533344, 1177698331)),
    ((300164396, 51178701), (842209824, 1200988833)),
    ((408541006, 7393790), (418326277, 161893526)),
]


def test_find_basis_pinned(ex2_curve, ex2_frob, basis31):
    ctx5 = TorsionContext(5, ex2_curve, ex2_frob)
    for seed, (P, Q) in enumerate(BASES_EX2_ELL5):
        B = find_torsion_basis(ctx5, seed)
        assert (B.P, B.Q) == (P, Q), seed
    ctx31 = context(basis31)
    for seed, (P, Q) in enumerate(BASES_ELL31):
        B = find_torsion_basis(ctx31, seed)
        assert (B.P, B.Q) == (P, Q), seed


def test_find_basis_ell31_inversions(count_calls):
    # the inversions mod p of one basis search on the ell = 31 curve: one
    # per _mul that does not meet O, and those of the pairings' Miller
    # walks (15); an inversion per double-and-add step in _mul made 89
    C = Curve(PrimeField(P31), A31, 0)
    ctx = TorsionContext(31, C, FrobeniusData(P31, N31, P31 + 1 - N31))
    pows = count_calls(builtins, "pow")
    B = find_torsion_basis(ctx, 0)
    assert (B.P, B.Q) == ((302694661, 1375251924), (711876631, 471181071))
    assert sum(args[1:] == (-1, P31) for args in pows) == 17


def test_torsion_draw_one_mul_per_step(count_calls):
    # y^2 = x^3 + x over F_17 has E(F_17) = Z/4 x Z/4, so v_2(#E) = 4: a
    # point of order 2^k takes k - 1 steps down (one multiplication by 2
    # each), then one more multiplication by 2 meets O: every k is below
    # the deepest level v - 1 = 3, the one level _order walks instead; it
    # returns T's walk either way
    C = Curve(PrimeField(17), 1, 0)
    calls = count_calls(torsion, "_mul")
    orders = []
    for A in small_curve(C).points[1:]:
        calls.clear()
        k, T, walk = torsion._order(C, 2, 4, A)
        assert [n for _, n, _ in calls] == [2] * k
        assert T is not None and scalar_mul(C, 2, T) is None
        assert scalar_mul(C, 2 ** (k - 1), A) == T
        assert walk == pairing._walk(C, 2, T)
        orders.append(k)
    assert sorted(set(orders)) == [1, 2]


def test_find_basis_walks_each_point_once(count_calls, ctx97):
    # ell = 31, v = 2: each draw's one level is checked by walking the
    # drawn point, not by multiplying it by ell, and the basis keeps both
    # walks: the two _mul calls are the draws m*X (4 when ell*T = O was
    # multiplied out), the two walks those of P and Q
    C = Curve(PrimeField(P31), A31, 0)
    ctx = TorsionContext(31, C, FrobeniusData(P31, N31, P31 + 1 - N31))
    muls, walks = count_calls(curve, "_mul"), count_calls(pairing, "_walk")
    B = find_torsion_basis(ctx, 0)
    assert (B.P, B.Q) == BASES_ELL31[0]
    assert taken(muls, walks) == (2, 2)
    assert (B.p_walk, B.q_walk) == (pairing._walk(C, 31, B.P),
                                     pairing._walk(C, 31, B.Q))
    # ell = 97, v = 4: only the deepest level is walked; a search that
    # multiplied every level by ell and walked in the basis made 13 and 6
    taken(muls, walks)
    B = find_torsion_basis(ctx97, 0)
    assert (B.P, B.Q) == BASES_ELL97[0]
    assert taken(muls, walks) == (11, 4)


def test_dlog_one_mu_table_per_context(count_calls, basis31):
    # two bases of one context, with different zeta, read their logs from
    # one table of mu_ell, built at the context's first dlog2d
    ctx = context(basis31)
    tables = count_calls(torsion, "_mu_logs")
    bases = [find_torsion_basis(ctx, seed) for seed in (0, 1)]
    assert bases[0].zeta != bases[1].zeta and tables == []
    rng = random.Random(31)
    for B in bases + bases:
        for _ in range(4):
            R = combine(B, rng.randrange(31), rng.randrange(31))
            assert dlog2d(B, R) == dlog_reference(B, R)
        R = combine(bases[0], 3, 5)
        assert dlog2d(B, R) == dlog_reference(B, R)
    assert len(tables) == 1


BASES_ELL97 = [
    ((1478373507, 766543494), (55041655, 1764971026)),
    ((684538222, 405314077), (1063633654, 550797725)),
    ((822114844, 1096326423), (308616423, 1729069257)),
    ((997923388, 1526865315), (1157335554, 418678604)),
    ((557229039, 366584133), (1257292055, 214370498)),
    ((112042723, 1683712617), (650296685, 1610348492)),
    ((1627513404, 450611466), (630968129, 929262742)),
    ((997923388, 1526865315), (923596396, 484010917)),
    ((794776426, 1376301117), (649874020, 1548724019)),
    ((445897212, 925137108), (801386294, 1177365145)),
]


def test_find_basis_ell97(ctx97):
    # ell-part Z/97 x Z/97^3: a candidate in <P> is reduced by the first
    # draw, not thrown away, through a table of the multiples of P built
    # in layers (97 - 1 points, past curve._LAYER_MIN)
    with deadline(10):
        for seed, (P, Q) in enumerate(BASES_ELL97):
            B = find_torsion_basis(ctx97, seed)
            assert (B.P, B.Q) == (P, Q), seed
            assert _weil(ctx97.curve, 97, B.P, B.Q) != 1


def test_find_basis_wrong_order_raises(ex2_curve):
    # #E = 725 = 25 * 29 passes the context's checks on the F_701 curve of
    # order 700; a draw m*X = 29*X that 25 does not kill shows it wrong
    ctx = TorsionContext(5, ex2_curve, FrobeniusData(701, 725, -23))
    with deadline(10), pytest.raises(ValueError, match="#E is wrong"):
        find_torsion_basis(ctx)


def test_context_rejects_wrong_order_small_p():
    # y^2 = x^3 + x + 2 over F_5 has #E = 4 and a cyclic 2-part; with #E
    # given as 8 every draw has order <= 4 < 2^3, so no draw shows the
    # order wrong: the context checks it by the character sum instead
    C5 = Curve(PrimeField(5), 1, 2)
    with deadline(10), pytest.raises(ValueError, match="#E = 8 is wrong .* it is 4"):
        find_torsion_basis(TorsionContext(2, C5, FrobeniusData(5, 8, -2)))


def test_context_rejects_foreign_frobenius(ex2_curve):
    # the counts of y^2 = x^3 + x over F_13 (#E = 20) pass the checks on
    # ell = 2, but belong to another field
    C13 = Curve(PrimeField(13), 1, 0)
    with pytest.raises(ValueError, match="Frobenius data of F_13, not of F_701"):
        TorsionContext(2, ex2_curve, count_points(C13))


def _contexts(bound):
    """(ctx, E[ell] rational) for every context TorsionContext accepts on
    an ordinary curve over F_p, p < bound, and ell in {2, 3, 5}."""
    for p in primes(3, bound):
        for sc in small_curves(p):
            if not sc.ordinary:
                continue
            for ell in (2, 3, 5):
                try:
                    ctx = TorsionContext(ell, sc.curve, sc.frob)
                except ValueError:
                    continue
                yield ctx, sc.rational(ell)


def test_find_basis_exhaustive_small_p():
    # a basis exactly when E[ell] is rational, else TorsionNotRational
    outcomes = {True: 0, False: 0}
    with deadline(60):
        for seed, (ctx, rational) in enumerate(_contexts(50)):
            outcomes[rational] += 1
            if rational:
                find_torsion_basis(ctx, seed)
            else:
                with pytest.raises(TorsionNotRational):
                    find_torsion_basis(ctx, seed)
    assert outcomes == {True: 1543, False: 2734}


@pytest.mark.parametrize("ell", [2, 5])
def test_subgroups_partition_nonzero_points(capsys, ex2_curve, ell):
    # the ell + 1 generators of the census listing
    main(["census", "--name", "ex2-f701", "--ell", str(ell), "--phi", "alpha_701"])
    out = capsys.readouterr().out
    gens = [parse_point(g) for g in re.findall(r"^subgroup=(.*):", out, re.M)]
    assert len(gens) == ell + 1
    seen = {}
    for g in gens:
        assert g is not None and scalar_mul(ex2_curve, ell, g) is None
        for k in range(1, ell):
            A = scalar_mul(ex2_curve, k, g)
            assert A not in seen
            seen[A] = g
    assert len(seen) == ell * ell - 1
