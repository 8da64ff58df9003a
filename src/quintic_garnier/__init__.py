"""Exact arithmetic for character-variety orbits of the five-punctured sphere
and logarithmic flat connections on the plane with quintic polar locus.

The layers, bottom up; a module imports only the layers beneath it on its
chain (ring ← fractions ← forms ← connections ← garnier and ring ← sl2 ←
reps ← families, traces ← braids), and cli sits on both:

- :mod:`~quintic_garnier.ring` / :mod:`~quintic_garnier.fractions`:
  multivariate Laurent polynomials over the rationals and rational functions
  with declared factored denominators (no gcd, equality by cross
  multiplication).
- :mod:`~quintic_garnier.forms`: scalar one- and two-forms, exterior
  derivative, wedge, rational maps with optional Moebius fiber actions.
- :mod:`~quintic_garnier.sl2` / :mod:`~quintic_garnier.reps` /
  :mod:`~quintic_garnier.families`: unimodular 2x2 matrices, word and
  relation checking, trace coordinates, and the catalog of representation
  families.
- :mod:`~quintic_garnier.traces` / :mod:`~quintic_garnier.braids`:
  polynomial letter maps read off one SL2 trace identity, braid moves and
  finite orbit enumeration on the character variety of the five-punctured
  sphere.
- :mod:`~quintic_garnier.connections` / :mod:`~quintic_garnier.garnier`:
  logarithmic flat connections (curvature, residues, Riccati pullbacks,
  divisor factorization) and the generic-line restriction with its Garnier
  parametrization.
- :mod:`~quintic_garnier.cli`: the ``quintic-garnier`` command.

The namespace is lazy (PEP 562): importing the package loads no module,
and the first read of a name in ``__all__`` or of a submodule imports the
module that defines it and keeps the value here.  So a process loads only
the layers it reads: ``orbit`` and ``compare`` never load ``fractions``,
``forms``, ``connections`` or ``garnier``.
"""

import importlib

# each module and the names the package exports from it, in __all__ order
_EXPORTS = {
    "ring": ("LaurentPoly", "VarContext", "parse_poly", "serialize_poly"),
    "fractions": ("DenomBasis", "FactoredFraction", "Substitution", "frac_eq",
                  "serialize_frac"),
    "forms": ("MobiusAction", "RationalMap", "ScalarOneForm", "ScalarTwoForm",
              "divisor_pullback"),
    "sl2": ("GroupWord", "Mat2", "Presentation", "projective_closure",
            "verify_relations", "word_evaluate"),
    "reps": ("RepTuple", "TraceTuple", "induced_representation",
             "irreducibility_witness", "trace_coordinates",
             "verify_product_identity"),
    "families": ("FAMILY_NAMES", "builtin_family", "restriction_assignment"),
    "braids": ("BraidWord", "OrbitResult", "braid_act", "center_check",
               "extended_orbit", "full_twist", "orbit", "orbit_compare",
               "pure_generators"),
    "connections": ("MatConnection", "RiccatiForm", "flat_representative",
                    "is_flat", "mat_curvature", "pullback_riccati", "residue",
                    "riccati_of_connection"),
    "garnier": ("GarnierData", "LineRestriction", "garnier_parametrization",
                "h21_extract", "pole_positions", "restrict_to_line"),
}
_SUBMODULES = (*_EXPORTS, "traces", "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the module behind an exported name or a submodule on first
    read, and keep the value in the package namespace."""
    module = _HOME.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
