"""3-manifold invariants from modular data.

Modular S/T data with Verlinde-axiom verification, Dehn surgery formulas
(lens spaces, Brieskorn stars, plumbing trees), triangulation state sums
for pointed 6j data with Pachner moves, tube algebras of pointed cyclic
categories, and independent homomorphism-counting oracles.
"""

from .catalog import (
    FiniteAbelianGroup,
    GoldenFixture,
    dw_brieskorn_oracle,
    dw_lens_oracle,
    e6_lens_reference,
    fibonacci,
    golden_fixtures,
    ising,
    pointed_cyclic,
    quantum_double_abelian,
    standard_pointed_form,
    su2_level_k,
    trivial_data,
    twisted_double_cyclic,
)
from .dataio import (
    load_modular_file,
    load_triangulation,
    save_modular_file,
    save_triangulation,
)
from .errors import (
    CapacityError,
    ConjugationError,
    DecompositionError,
    DegenerateDataError,
    FusionIntegralityError,
    GeneratorError,
    ParseError,
    PreconditionError,
    StructureError,
    TvoError,
    UnsupportedFeatureError,
)
from .modular import (
    FusionTable,
    ModularData,
    VerificationReport,
    charge_conjugation,
    conjugate_equivalent,
    double_data,
    fusion_from_S,
    global_index,
    verify_verlinde,
)
from .statesum import SixJData, pointed_sixj, tv_evaluate, verify_pentagon
from .surgery import (
    InvariantValue,
    PlumbingTree,
    brieskorn,
    lens_general,
    lens_p1,
    lens_p2,
    plumbing_invariant,
)
from .triangulation import (
    Triangulation,
    boundary_4_simplex,
    pachner_14,
    pachner_23,
    random_pachner_walk,
)
from .tube import CenterBasis, TubeAlgebra, center_idempotents, tube_modular_data, tube_pointed

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CenterBasis",
    "ConjugationError",
    "DecompositionError",
    "DegenerateDataError",
    "FiniteAbelianGroup",
    "FusionIntegralityError",
    "FusionTable",
    "GeneratorError",
    "GoldenFixture",
    "InvariantValue",
    "ModularData",
    "ParseError",
    "PlumbingTree",
    "PreconditionError",
    "SixJData",
    "StructureError",
    "Triangulation",
    "TubeAlgebra",
    "TvoError",
    "UnsupportedFeatureError",
    "VerificationReport",
    "boundary_4_simplex",
    "brieskorn",
    "center_idempotents",
    "charge_conjugation",
    "conjugate_equivalent",
    "double_data",
    "dw_brieskorn_oracle",
    "dw_lens_oracle",
    "e6_lens_reference",
    "fibonacci",
    "fusion_from_S",
    "global_index",
    "golden_fixtures",
    "ising",
    "lens_general",
    "lens_p1",
    "lens_p2",
    "load_modular_file",
    "load_triangulation",
    "pachner_14",
    "pachner_23",
    "plumbing_invariant",
    "pointed_cyclic",
    "pointed_sixj",
    "quantum_double_abelian",
    "random_pachner_walk",
    "save_modular_file",
    "save_triangulation",
    "standard_pointed_form",
    "su2_level_k",
    "trivial_data",
    "tube_modular_data",
    "tube_pointed",
    "tv_evaluate",
    "twisted_double_cyclic",
    "verify_pentagon",
    "verify_verlinde",
]
