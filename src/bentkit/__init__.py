"""Construction and exact verification of bent functions over GF(2^n)."""

from .boolfun import (
    DualityClass,
    TruthTable,
    WalshSpectrum,
    add,
    add_const,
    anf,
    degree,
    dual,
    duality_class,
    is_bent,
    is_idempotent,
    load_tt,
    parse_tt,
    save_tt,
    walsh,
)
from .constructions import (
    ConstructedPair,
    ConstructionSpec,
    build,
    gold_like,
    is_quad_bent_gcd,
    kasami_antiselfdual,
    kasami_general,
    kasami_idempotent,
    kasami_subfield,
    mm_linear,
    mm_monomial,
    niho_dual_g,
    niho_family,
    niho_g,
    quad_family,
    quad_idempotent_family,
    quad_idempotent_g,
    spec_from_json,
    spec_to_json,
)
from .gf2n import BivariateDomain, Field, make_field
from .multipoly import (
    ReducedPoly,
    compose_traces,
    elementary_symmetric,
    fourier,
    is_rotation_symmetric,
    rotation_closure,
)
# the checker itself stays at bentkit.verify.verify so the submodule name
# keeps working as an attribute of the package
from .verify import (
    Expectation,
    VerificationReport,
    demo_carlet,
    demo_mesnager,
    master_identity_holds,
    sweep,
)

__version__ = "0.1.0"
