"""Construction and exact verification of bent functions over GF(2^n).

The package is lazy: each exported name, and each submodule below, is
imported on first access, so a command loads only the layers it runs.
"""

import importlib

# submodule -> the names it defines that the package exports.  The checker
# and ReducedPoly live in boolfun, and bentkit.verify is the submodule.
_EXPORTS = {
    "boolfun": ("DualityClass", "Expectation", "ReducedPoly", "TruthTable",
                "VerificationReport", "WalshSpectrum", "add", "add_const",
                "anf", "degree", "dual", "duality_class", "is_bent",
                "is_idempotent", "load_tt", "parse_tt", "save_tt", "walsh"),
    "constructions": ("ConstructedPair", "gold_like", "is_quad_bent_gcd",
                      "kasami_antiselfdual", "kasami_general",
                      "kasami_idempotent", "kasami_subfield", "mm_linear",
                      "mm_monomial", "niho_dual_g", "niho_family", "niho_g",
                      "quad_family", "quad_idempotent_family",
                      "quad_idempotent_g"),
    "gf2n": ("BivariateDomain", "Field", "make_field"),
    "multipoly": ("compose_traces", "elementary_symmetric", "fourier",
                  "is_rotation_symmetric", "rotation_closure"),
    "specs": ("ConstructionSpec", "build", "spec_from_json", "spec_to_json"),
    "verify": ("demo_carlet", "demo_mesnager", "master_identity_holds",
               "sweep"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
