"""CP-map calculus, strong-commutation certificates and finite-horizon dilations."""

from .chan import (
    ChannelReport,
    KrausFamily,
    apply_kraus,
    choi_to_kraus,
    classify,
    compose,
    conjugation,
    identity_channel,
    kraus_equivalence_unitary,
    kraus_to_choi,
    kraus_to_super,
)
from .dilation import (
    DilationRun,
    build_big_space,
    build_dilation_space,
    dilate,
    lift_operators,
    minimality_check,
    verify_e_dilation,
)
from .prodsys import (
    GridPoint,
    TwistedProductSystem,
    build_product_system,
    representation_matrix,
    verify_representation,
)
from .stochastic import (
    build_diagonal_intertwiner,
    card_criterion,
    is_irreducible,
    semigroup_at,
    strongly_commute_diagonal,
)
from .strongcomm import (
    StrongCommutationCertificate,
    check_commute,
    strong_commutation_certificate,
    verify_certificate,
)

__all__ = [
    "ChannelReport",
    "DilationRun",
    "GridPoint",
    "KrausFamily",
    "StrongCommutationCertificate",
    "TwistedProductSystem",
    "apply_kraus",
    "build_big_space",
    "build_diagonal_intertwiner",
    "build_dilation_space",
    "build_product_system",
    "card_criterion",
    "check_commute",
    "choi_to_kraus",
    "classify",
    "compose",
    "conjugation",
    "dilate",
    "identity_channel",
    "is_irreducible",
    "kraus_equivalence_unitary",
    "kraus_to_choi",
    "kraus_to_super",
    "lift_operators",
    "minimality_check",
    "representation_matrix",
    "semigroup_at",
    "strong_commutation_certificate",
    "strongly_commute_diagonal",
    "verify_certificate",
    "verify_e_dilation",
    "verify_representation",
]

__version__ = "0.1.0"
