"""Distortion maps on ordinary elliptic curves with rational ell-torsion.

Library + CLI: pairing DDH on <P>, endomorphism action on E[ell],
and the order-theoretic classification of distortion-map existence.
"""

from .field import PrimeField
from .curve import (
    Curve,
    FrobeniusData,
    count_points,
    point_add,
    point_neg,
    reduce_rational_curve,
    scalar_mul,
)
from .torsion import (
    TorsionBasis,
    TorsionContext,
    dlog2d,
    find_torsion_basis,
)
from .pairing import weil_pairing
from .endo import (
    RationalEndomorphism,
    TorsionMatrix,
    char_poly_mod_ell,
    endo_eval,
    endo_matrix,
    make_catalog_endo,
)
from .classify import (
    ClassificationReport,
    OrderData,
    classify_case,
    decompose_discriminant,
    distortion_census,
    verify_theorem1,
)
from .ddh import DdhInstance, ddh_decide, ddh_sample

__version__ = "0.1.0"
