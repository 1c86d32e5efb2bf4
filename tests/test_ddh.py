import itertools

import pytest

from distmap.curve import scalar_mul
from distmap.ddh import (
    DdhInstance,
    InstanceInvalid,
    NotADistortionMap,
    ddh_decide,
    ddh_sample,
)
from distmap.endo import make_catalog_endo, shifted_endo
from distmap.field import ZeroInverse
from distmap.pairing import weil_pairing


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
    def broken(B, R):
        raise ZeroInverse("inverse of 0")

    monkeypatch.setattr("distmap.ddh.dlog2d", broken)
    inst = triple_of(ex2_curve, basis5.P, 2, 3, 6)
    with pytest.raises(ZeroInverse):
        ddh_decide(basis5, alpha, inst)


def test_exhaustive_soundness_ell5(basis5, alpha, ex2_curve):
    # all 125 triples (aP, bP, cP): decision == (ab = c mod 5)
    for a, b, c in itertools.product(range(5), repeat=3):
        inst = triple_of(ex2_curve, basis5.P, a, b, c)
        assert ddh_decide(basis5, alpha, inst) == (a * b % 5 == c % 5)


@pytest.fixture()
def basis2_distorted(basis2):
    # alpha's eigenlines on E[2] are <(319,0)> and <(389,0)>; DDH needs the
    # base subgroup to be the distorted one, generated by their sum (694,0)
    from distmap.torsion import TorsionBasis

    return TorsionBasis(basis2.ctx, (694, 0), (389, 0))


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
    from distmap.endo import endo_eval

    for k in range(5):
        phi = shifted_endo(alpha, k)
        if weil_pairing(
            ex2_curve, 5, basis5.P, endo_eval(phi, basis5.P)
        ).is_trivial():
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
