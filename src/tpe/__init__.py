"""Exact-arithmetic verification of torsion packet envelopes (TPEs).

A TPE for a hyperelliptic curve over Q is a triple (F, T, w) of a number
field, a finite set of curve points with torsion divisor classes, and a
completely split place of odd good reduction with #T at least the number of
points of the reduced curve.  Verifying one pins down the rational points
with torsion class, and, given an external rank-0 assertion, all rational
points.  Everything is exact: no floats anywhere.
"""

from tpe.algebra import (
    NonIntegralError,
    Poly,
    PrimeField,
    QQ,
    Rational,
    cyclotomic,
    discriminant,
    integer_power_classification,
    is_prime,
    is_squarefree,
    legendre_symbol,
    rational_roots,
    reduce_poly_mod_p,
    resultant,
    roots_mod_p,
    splits_completely_mod_p,
)
from tpe.curve import (
    CurvePoint,
    HyperellipticCurve,
    ReducedPoint,
    count_points_mod_p,
    has_good_reduction,
    is_weierstrass,
    make_curve,
    on_curve,
    reduce_point,
)
from tpe.docio import (
    DocumentError,
    document_from_obj,
    document_to_json,
    document_to_obj,
    dumps_canonical,
    load_document,
    parse_document,
)
from tpe.envelope import (
    BasePointCert,
    CantorCheckedCert,
    EvenModelInfinityCert,
    PointEntry,
    PrincipalDivisorCert,
    RankAssertion,
    TPEDocument,
    VerificationReport,
    WeierstrassFamilyEntry,
    WeierstrassTwoTorsionCert,
    theorem_conclusion,
    verify_certificate,
    verify_tpe,
)
from tpe.families import (
    Inapplicable,
    RankFixture,
    builtin_fixture,
    corollary_case_analysis,
    generate_cd,
    generate_dd,
    generate_xpx,
    sweep_cd,
)
from tpe.jacobian import (
    CertifiedTorsion,
    HeightLimitExceeded,
    Jacobian,
    MumfordDivisor,
    NotTorsion,
    TorsionVerdict,
    Undecidable,
    divisor_order,
    reduce_divisor,
    torsion_decide,
)
from tpe.tower import (
    ResidueAssignment,
    TowerElement,
    TowerSpec,
    ZeroDivisorError,
    reduce_element,
    split_places,
    tower_invert,
)

__version__ = "0.1.0"
