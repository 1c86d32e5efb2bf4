import itertools
import random
import re

import pytest

from conftest import context, deadline, primes, shifted_endo, small_curves, taken
from distmap import curve, ddh, pairing
from distmap.curve import Curve, PointNotOnCurve, point_add, scalar_mul
from distmap.ddh import (
    DdhInstance,
    InstanceInvalid,
    NotADistortionMap,
    ddh_decide,
    ddh_sample,
)
from distmap.endo import (
    IncompatibleCurve,
    RationalEndomorphism,
    endo_eval,
    make_catalog_endo,
)
from distmap.field import PrimeField, ZeroInverse
from distmap.pairing import NotInTorsion, weil_pairing
from distmap.torsion import (
    TorsionBasis,
    TorsionContext,
    find_torsion_basis,
)


def triple_of(C, P, a, b, c):
    return DdhInstance(
        P, (scalar_mul(C, a, P), scalar_mul(C, b, P), scalar_mul(C, c, P))
    )


def test_honest_triple(basis5, alpha, ex2_curve):
    inst = triple_of(ex2_curve, basis5.P, 2, 3, 6)
    assert ddh_decide(basis5, alpha, inst) is True


def test_trivial_triple(basis5, alpha, ex2_curve):
    inst = triple_of(ex2_curve, basis5.P, 1, 1, 1)
    assert ddh_decide(basis5, alpha, inst) is True


def test_dishonest_triple(basis5, alpha, ex2_curve):
    # 2*3 = 6 = 1 mod 5, and the T scalar here is 1... use c with c != ab
    inst = triple_of(ex2_curve, basis5.P, 2, 3, 2)
    assert ddh_decide(basis5, alpha, inst) is False


def test_scalar_endo_rejected(basis5, ex2_curve):
    phi = make_catalog_endo("scalar(2)", ex2_curve)
    inst = triple_of(ex2_curve, basis5.P, 2, 3, 6)
    with pytest.raises(NotADistortionMap):
        ddh_decide(basis5, phi, inst)


def test_base_other_than_p_rejected(basis5, alpha, ex2_curve):
    # 2P and -P generate <P> too, but the decision pairs against P itself
    P = basis5.P
    for base in (scalar_mul(ex2_curve, 2, P), scalar_mul(ex2_curve, -1, P), basis5.Q):
        inst = triple_of(ex2_curve, base, 1, 1, 1)
        with pytest.raises(InstanceInvalid, match="differs from the basis P"):
            ddh_decide(basis5, alpha, inst)


def test_membership_enforced(basis5, alpha, ex2_curve):
    inst = DdhInstance(basis5.P, (basis5.Q, basis5.P, basis5.P))
    with pytest.raises(InstanceInvalid):
        ddh_decide(basis5, alpha, inst)


@pytest.mark.parametrize(
    "A",
    [(1, 1), (693, 229)],  # off the curve; order 7 (700 = 4 * 25 * 7)
)
def test_member_outside_torsion_is_invalid(basis5, alpha, A):
    inst = DdhInstance(basis5.P, (basis5.P, A, basis5.P))
    with pytest.raises(InstanceInvalid):
        ddh_decide(basis5, alpha, inst)


def test_internal_dlog_fault_propagates(basis5, alpha, ex2_curve, monkeypatch):
    # a fault while building <P> and phi's images, behind membership, is no
    # invalid instance: it must surface as itself
    def broken(*args):
        raise ZeroInverse("inverse of 0")

    monkeypatch.setattr(ddh, "_progression", broken)
    inst = triple_of(ex2_curve, basis5.P, 2, 3, 6)
    with pytest.raises(ZeroInverse):
        ddh_decide(_fresh(basis5), alpha, inst)


def test_exhaustive_soundness_ell5(basis5, alpha, ex2_curve):
    # all 125 triples (aP, bP, cP): decision == (ab = c mod 5)
    for a, b, c in itertools.product(range(5), repeat=3):
        inst = triple_of(ex2_curve, basis5.P, a, b, c)
        assert ddh_decide(basis5, alpha, inst) == (a * b % 5 == c % 5)


@pytest.fixture()
def basis2_distorted(basis2):
    # alpha's eigenlines on E[2] are <(319,0)> and <(389,0)>; DDH needs the
    # base subgroup to be the distorted one, generated by their sum (694,0)
    return TorsionBasis(context(basis2), (694, 0), (389, 0))


def test_exhaustive_soundness_ell2(basis2_distorted, alpha, ex2_curve):
    B = basis2_distorted
    for a, b, c in itertools.product(range(2), repeat=3):
        inst = triple_of(ex2_curve, B.P, a, b, c)
        assert ddh_decide(B, alpha, inst) == (a * b % 2 == c % 2)


def test_eigenline_base_rejected(basis2, alpha, ex2_curve):
    # <(319,0)> is stabilized by alpha (Split case): no DDH decision there
    inst = triple_of(ex2_curve, basis2.P, 1, 1, 1)
    with pytest.raises(NotADistortionMap):
        ddh_decide(basis2, alpha, inst)


def test_degenerate_triples_with_identity(basis5, alpha, ex2_curve):
    inst = triple_of(ex2_curve, basis5.P, 0, 3, 0)
    assert ddh_decide(basis5, alpha, inst) is True
    inst = triple_of(ex2_curve, basis5.P, 0, 3, 1)
    assert ddh_decide(basis5, alpha, inst) is False


def test_decision_invariant_under_scalar_shift(basis5, alpha, ex2_curve):
    # replacing phi by phi + k*Id never changes the decision, whenever the
    # shifted map still distorts <P>
    baseline = {}
    for a, b, c in itertools.product(range(5), repeat=3):
        inst = triple_of(ex2_curve, basis5.P, a, b, c)
        baseline[(a, b, c)] = ddh_decide(basis5, alpha, inst)
    for k in range(5):
        phi = shifted_endo(alpha, k)
        if weil_pairing(
            ex2_curve, 5, basis5.P, endo_eval(phi, basis5.P)
        ) == 1:
            continue
        for key, expected in baseline.items():
            inst = triple_of(ex2_curve, basis5.P, *key)
            assert ddh_decide(basis5, phi, inst) == expected


def test_sample_honest_and_dishonest(basis5, alpha):
    for seed in range(8):
        honest = ddh_sample(basis5, honest=True, seed=seed)
        assert ddh_decide(basis5, alpha, honest) is True
        forged = ddh_sample(basis5, honest=False, seed=seed)
        assert ddh_decide(basis5, alpha, forged) is False


def test_sample_deterministic(basis5):
    a = ddh_sample(basis5, honest=True, seed=3)
    b = ddh_sample(basis5, honest=True, seed=3)
    assert a.triple == b.triple and a.truth == b.truth


def test_sample_ell2_edge(basis2_distorted, alpha):
    # with a = b = 1 the only wrong scalar is 0: T = identity, still valid
    for seed in range(6):
        inst = ddh_sample(basis2_distorted, honest=False, seed=seed)
        a, b, c = inst.truth
        assert c != a * b % 2
        assert ddh_decide(basis2_distorted, alpha, inst) is False


def _fresh(B):
    """A new basis on the same points, with nothing cached yet."""
    return TorsionBasis(context(B), B.P, B.Q)


def _miller_calls(count_calls):
    """The call lists of _weil, of every Miller walk and of every reading
    of one, of a Weil or a Tate pairing alike, under each name the library
    imports them by."""
    return [count_calls(module, name) for module, name in (
        (pairing, "_weil"), (pairing, "_walk"), (pairing, "_read"))]


def test_validate_calls_per_decision_flat_in_ell(count_calls, basis5, alpha, basis31):
    validate_calls = count_calls(Curve, "validate")
    phi31 = make_catalog_endo("sqrt_minus_one", basis31.curve)
    per_decision = {}
    for B, phi in ((basis5, alpha), (basis31, phi31)):
        insts = [ddh_sample(B, honest=s % 2 == 0, seed=s) for s in range(6)]
        ddh_decide(B, phi, insts[0])  # warm: tables and caches filled
        counts = set()
        for inst in insts:
            before = len(validate_calls)
            assert ddh_decide(B, phi, inst) == (inst.truth[0] * inst.truth[1]
                                                 % B.ell == inst.truth[2])
            counts.add(len(validate_calls) - before)
        per_decision[B.ell] = counts
    # one validate each for the base and the three members
    assert per_decision[5] == per_decision[31] == {4}


def test_distortion_check_paired_once_per_phi(count_calls, basis5, alpha):
    # the verdict e(P, phi(P)) != 1 is one Weil pairing: P's walk, recorded
    # by the basis, read at phi(P), and phi(P) walked, its E[ell] check,
    # and read at P.  The Tate check t(P, phi(P)) reads P's walk at phi(P)
    # again, and <P> and phi's images are built as two progressions of
    # ell - 2 additions each, before the one walk and two reads of the
    # Tate equation
    calls = _miller_calls(count_calls)
    adds = count_calls(curve, "_add")
    B = _fresh(basis5)
    inst = ddh_sample(B, honest=True, seed=1)
    taken(*calls, adds)  # the basis's own e(P, Q), and the sample
    ddh_decide(B, alpha, inst)
    assert taken(*calls, adds) == (1, 2, 5, 2 * (5 - 2))
    for seed in range(4):
        warm = ddh_sample(B, honest=seed % 2 == 0, seed=seed)
        taken(*calls, adds)
        ddh_decide(B, alpha, warm)
        assert taken(*calls, adds) == (0, 1, 2, 0)
    ddh_decide(B, shifted_endo(alpha, 1), inst)  # a new phi: checked afresh
    assert taken(*calls) == (1, 2, 5)
    assert len(B.distorts) == 2


def test_cached_non_distortion_still_raises(count_calls, basis5, ex2_curve):
    # 2P lies in <P>: the Weil pairing e(P, 2P) reads P's recorded walk at
    # 2P, where a line of it vanishes, so it walks nothing and no multiples
    # are built; the second call raises from the cache
    B = _fresh(basis5)
    calls = _miller_calls(count_calls)
    tables = count_calls(curve, "_progression")
    phi = make_catalog_endo("scalar(2)", ex2_curve)
    inst = triple_of(ex2_curve, B.P, 2, 3, 6)
    for _ in range(2):
        with pytest.raises(NotADistortionMap, match=r"phi\(P\) lies in <P>"):
            ddh_decide(B, phi, inst)
    assert taken(*calls, tables) == (1, 0, 1, 0)
    assert B.distorts[phi] is None


@pytest.mark.parametrize("case, reads", [
    ("alpha on ex2", 2),
    ("[i] at ell = 31", 2),
    ("alpha + scalar(2) on ex2", 4),
])
def test_miller_loops_per_warm_decision(count_calls, basis5, basis31, alpha, case, reads):
    # the Tate equation reads one Miller function per side; the Weil
    # equation, kept where t(P, phi(P)) = 1, reads two.  Every read but
    # one is of a fresh walk: f_P(phi(T)) reads P's recorded walk
    B, phi = {
        "alpha on ex2": (basis5, alpha),
        "[i] at ell = 31": (basis31, make_catalog_endo("sqrt_minus_one", basis31.curve)),
        "alpha + scalar(2) on ex2": (basis5, shifted_endo(alpha, 2)),
    }[case]
    # R, S and T all differ from O: a pairing with O in a slot takes no loop
    insts = [triple_of(B.curve, B.P, a, b, c)
             for a, b, c in ((2, 3, 6), (1, 1, 1), (3, 4, 2), (4, 4, 1), (2, 2, 3))]
    ddh_decide(B, phi, insts[0])  # warm: tables and caches filled
    _, walk_calls, read_calls = _miller_calls(count_calls)
    counts = set()
    for inst in insts:
        taken(walk_calls, read_calls)
        ddh_decide(B, phi, inst)
        counts.add(taken(walk_calls, read_calls))
    assert counts == {(reads - 1, reads)}


def _check_rule(B, phi, rule, triples):
    """Decide each (a, b, c) against ab = c mod ell and check the rule
    chosen for (B, phi).  On the same points the Weil equation always
    decides; the Tate equation decides where it is chosen and accepts
    every triple where it is not (t is trivial on <P> x phi(<P>) there)."""
    C, ell = B.curve, B.ell
    for a, b, c in triples:
        truth = a * b % ell == c % ell
        inst = triple_of(C, B.P, a, b, c)
        assert ddh_decide(B, phi, inst) == truth
        R, S, T = inst.triple
        args = (B, R, phi.image(S), phi.image(T))
        assert ddh._weil_equation(*args) == truth
        assert ddh._tate_equation(*args) == (truth or rule is ddh._weil_equation)
    assert B.distorts[phi][0] is rule


def test_tate_rule_against_weil_rule_ex2(basis5, alpha):
    # all of (Z/5)^3 with alpha + k; k = 2 has t(phi(P), P) = 1 although
    # phi distorts <P>, so it keeps the Weil equation
    for k in range(5):
        rule = ddh._weil_equation if k == 2 else ddh._tate_equation
        _check_rule(_fresh(basis5), shifted_endo(alpha, k), rule,
                    itertools.product(range(5), repeat=3))


def test_tate_rule_against_weil_rule_ell2(basis2_distorted, alpha):
    _check_rule(_fresh(basis2_distorted), alpha, ddh._tate_equation,
                itertools.product(range(2), repeat=3))


def test_tate_rule_against_weil_rule_ell31(basis31):
    # [i] takes the Tate equation; [i] + 11 distorts <P> too, but
    # t(P, phi(P)) = 1 for it.  [i] + 20 has t(phi(P), P) = 1 instead, and
    # the Tate pairing is not symmetric: it takes the Tate equation
    i = make_catalog_endo("sqrt_minus_one", basis31.curve)
    rng = random.Random(31)
    triples = []
    for _ in range(40):
        a, b = rng.randrange(31), rng.randrange(31)
        triples.append((a, b, a * b if rng.random() < 0.5 else rng.randrange(31)))
    for phi, rule in ((i, ddh._tate_equation),
                      (shifted_endo(i, 11), ddh._weil_equation),
                      (shifted_endo(i, 20), ddh._tate_equation)):
        _check_rule(_fresh(basis31), phi, rule, triples)


def test_triples_with_s_identity(basis5, alpha, ex2_curve):
    # b = 0 makes phi(S) = O, so the left side is t(O, R) = 1 (e(R, O) = 1
    # under the Weil rule): the triple holds exactly when T = O
    for phi in (alpha, shifted_endo(alpha, 2)):
        B = _fresh(basis5)
        for a, c in itertools.product(range(5), repeat=2):
            inst = triple_of(ex2_curve, B.P, a, 0, c)
            assert ddh_decide(B, phi, inst) is (c == 0)


@pytest.mark.parametrize("case", ["into-P", "order-7", "order-7-weil", "plus-Q", "plus-P"])
def test_map_wrong_away_from_p_decided_exactly(basis5, alpha, ex2_curve, case):
    # each map equals alpha (or alpha + 2, which keeps the Weil equation)
    # except at S = 3P, which it sends back to S, to a point of order 7,
    # or to alpha(S) + Q or + P.  phi is read at P only, and the table
    # holds b*phi(P) for phi(bP); by bilinearity e(aP, b*X) = e(P, c*X)
    # iff ab = c mod 5 for any X with e(P, X) != 1, so every triple is
    # decided exactly and the map is cached
    C, B = ex2_curve, _fresh(basis5)
    S = scalar_mul(C, 3, B.P)
    base = shifted_endo(alpha, 2) if case == "order-7-weil" else alpha
    moved = {
        "into-P": S,
        "order-7": (693, 229),
        "order-7-weil": (693, 229),
        "plus-Q": point_add(C, alpha.image(S), B.Q),
        "plus-P": point_add(C, alpha.image(S), B.P),
    }[case]
    fake = RationalEndomorphism(
        C, "fake", trace=base.trace, norm=base.norm,
        image=lambda A: moved if A == S else base.image(A),
    )
    for a, b, c in itertools.product(range(5), repeat=3):
        assert ddh_decide(B, fake, triple_of(C, B.P, a, b, c)) == (a * b % 5 == c)
    assert B.distorts[fake][0] is (
        ddh._weil_equation if case == "order-7-weil" else ddh._tate_equation)


def test_image_of_p_outside_torsion_raises(basis5, alpha):
    # phi(P) of order 7: the verdict e(P, phi(P)) walks phi(P), which is its
    # E[ell] check, and the map is not cached
    C, B, order7 = basis5.curve, _fresh(basis5), (693, 229)
    fake = RationalEndomorphism(
        C, "fake", trace=alpha.trace, norm=alpha.norm,
        image=lambda A: order7 if A == B.P else alpha.image(A),
    )
    with pytest.raises(NotInTorsion, match=re.escape(f"{order7} does not have exact order 5")):
        ddh_decide(B, fake, triple_of(C, B.P, 2, 3, 6))
    assert fake not in B.distorts


def test_table_verdict_matches_weil_test(basis5, basis31, alpha, ex2_curve):
    # the verdict phi(P) not in <P> is one lookup in the table of the
    # multiples of P; the Weil test e(P, phi(P)) != 1 is its oracle
    i = make_catalog_endo("sqrt_minus_one", basis31.curve)
    cases = [(basis5, shifted_endo(alpha, k)) for k in range(5)]
    cases += [(basis5, make_catalog_endo(f"scalar({k})", ex2_curve)) for k in range(5)]
    cases += [(basis31, shifted_endo(i, k)) for k in range(31)]
    verdicts = []
    for B, phi in cases:
        B = _fresh(B)
        distorts = weil_pairing(B.curve, B.ell, B.P, phi.image(B.P)) != 1
        assert (ddh._rule(B, phi) is not None) == distorts, phi.label
        verdicts.append(distorts)
    assert verdicts.count(False) == 5 and verdicts.count(True) == 36


def test_ddh_past_layer_min_ell97(basis97):
    # at ell = 97 both progressions of the rule, <P> and phi's images of
    # it, are built in layers.  The seed-0 P lies on an eigenline of [i]
    # (endo-matrix prints matrix=22,78;0,75), so [i] does not distort <P>;
    # with P and Q swapped, [i] moves P' = Q off <P'> and decides DDH
    assert 97 - 1 >= curve._LAYER_MIN
    C = basis97.curve
    phi = make_catalog_endo("sqrt_minus_one", C)
    with pytest.raises(NotADistortionMap):
        ddh_decide(_fresh(basis97), phi, triple_of(C, basis97.P, 2, 3, 6))
    B = TorsionBasis(context(basis97), basis97.Q, basis97.P)
    for seed in range(50):
        inst = ddh_sample(B, honest=seed % 2 == 0, seed=seed)
        a, b, c = inst.truth
        assert ddh_decide(B, phi, inst) == (a * b % 97 == c), seed
    image = phi.image(B.P)
    assert B.distorts[phi][1] == {
        scalar_mul(C, b, B.P): scalar_mul(C, b, image) for b in range(97)
    }


def test_map_on_another_curve_rejected(basis5, ex2_curve):
    # y^2 = x^3 + a4*x over F_701 through P = (224, 31): [i] is defined on
    # that curve and accepts P, but sends it off the basis's curve; the
    # curves are compared once, before any image is taken
    x, y = basis5.P
    a4 = (y * y - x ** 3) * pow(x, -1, 701) % 701
    phi = make_catalog_endo("sqrt_minus_one", Curve(PrimeField(701), a4, 0))
    with pytest.raises(PointNotOnCurve):
        ex2_curve.validate(endo_eval(phi, basis5.P))
    inst = triple_of(ex2_curve, basis5.P, 2, 3, 6)
    with pytest.raises(IncompatibleCurve):
        ddh_decide(_fresh(basis5), phi, inst)


def test_warm_decision_adds_no_point(count_calls, basis5, alpha, basis31):
    # R, S and T of <P> are one lookup each in the keys of phi's images,
    # which also hold phi(S) and phi(T): no point addition at all
    add_calls = count_calls(curve, "_add")
    phi31 = make_catalog_endo("sqrt_minus_one", basis31.curve)
    for B, phi in ((basis5, alpha), (basis31, phi31)):
        insts = [ddh_sample(B, honest=s % 2 == 0, seed=s) for s in range(6)]
        ddh_decide(B, phi, insts[0])  # warm: tables and caches filled
        add_calls.clear()
        for inst in insts:
            ddh_decide(B, phi, inst)
        assert add_calls == [], B.ell


def test_warm_decision_evaluates_phi_never(basis5, alpha, basis31):
    # phi's images of <P> are built once per basis and phi, from one
    # evaluation of phi, at P (test_phi_read_once_at_p); a warm decision
    # reads them and evaluates phi not at all
    phi31 = make_catalog_endo("sqrt_minus_one", basis31.curve)
    for B, base in ((basis5, alpha), (basis31, phi31)):
        calls = []

        def image(A, f=base.image):
            calls.append(A)
            return f(A)

        phi = RationalEndomorphism(base.curve, base.label, base.trace, base.norm, image)
        B = _fresh(B)
        insts = [ddh_sample(B, honest=s % 2 == 0, seed=s) for s in range(6)]
        ddh_decide(B, phi, insts[0])
        assert len(calls) <= B.ell + 1, B.ell
        calls.clear()
        for inst in insts:
            ddh_decide(B, phi, inst)
        assert calls == [], B.ell


@pytest.mark.parametrize("case", ["alpha on ex2", "alpha + scalar(2) on ex2", "[i] at ell = 97"])
def test_phi_read_once_at_p(basis5, alpha, ctx97, case):
    # the rule evaluates phi at P and nowhere else: its table of <P> holds
    # b*phi(P) for phi(bP), and decisions read phi(S) and phi(T) from it.
    # alpha + 2 keeps the Weil equation
    if case == "[i] at ell = 97":
        base = make_catalog_endo("sqrt_minus_one", ctx97.curve)
        B = TorsionBasis(ctx97, (55041655, 1764971026), (1478373507, 766543494))
    else:
        base = alpha if case == "alpha on ex2" else shifted_endo(alpha, 2)
        B = _fresh(basis5)
    calls = []

    def image(A):
        calls.append(A)
        return base.image(A)

    phi = RationalEndomorphism(base.curve, base.label, base.trace, base.norm, image)
    weil = case == "alpha + scalar(2) on ex2"
    assert ddh._rule(B, phi)[0] is (ddh._weil_equation if weil else ddh._tate_equation)
    for seed in range(10):
        inst = ddh_sample(B, honest=seed % 2 == 0, seed=seed)
        a, b, c = inst.truth
        assert ddh_decide(B, phi, inst) == (a * b % B.ell == c), seed
    assert calls == [B.P]


def test_ddh_differential_small_curves():
    # every y^2 = x^3 + a4*x over F_p, p = 1 mod 4, 5 <= p < 110, with
    # E[ell] rational for ell in {2, 3, 5}, and every phi = [i] + k: a map
    # that distorts <P> (e(P, phi(P)) != 1) decides all ell^3 triples as
    # ab = c mod ell; any other map is refused
    equations = set()
    with deadline(60):
        for sc in [sc for p in primes(5, 110) if p % 4 == 1
                   for sc in small_curves(p) if sc.a6 == 0]:
            C = sc.curve
            i = make_catalog_endo("sqrt_minus_one", C)
            for ell in (2, 3, 5):
                if not sc.rational(ell):
                    continue
                B = find_torsion_basis(TorsionContext(ell, C, sc.frob), seed=0)
                for k in range(ell):
                    phi = shifted_endo(i, k)
                    if weil_pairing(C, ell, B.P, phi.image(B.P)) == 1:
                        with pytest.raises(NotADistortionMap):
                            ddh_decide(B, phi, triple_of(C, B.P, 1, 1, 1))
                        continue
                    for a, b, c in itertools.product(range(ell), repeat=3):
                        inst = triple_of(C, B.P, a, b, c)
                        assert ddh_decide(B, phi, inst) == (a * b % ell == c), (C, ell, k)
                    weil = B.distorts[phi][0] is ddh._weil_equation
                    equations.add("Weil" if weil else "Tate")
    assert equations == {"Tate", "Weil"}
