"""Exact arithmetic for character-variety orbits of the five-punctured sphere
and logarithmic flat connections on the plane with quintic polar locus.

The layers, bottom up:

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
- :mod:`~quintic_garnier.traces` / :mod:`~quintic_garnier.braids`: SL2
  trace reduction into polynomial letter maps, braid moves and finite orbit
  enumeration on the character variety of the five-punctured sphere.
- :mod:`~quintic_garnier.connections` / :mod:`~quintic_garnier.garnier`:
  logarithmic flat connections (curvature, residues, Riccati pullbacks,
  divisor factorization) and the generic-line restriction with its Garnier
  parametrization.
- :mod:`~quintic_garnier.cli`: the ``quintic-garnier`` command.
"""

from .ring import LaurentPoly, VarContext, parse_poly, serialize_poly
from .fractions import DenomBasis, FactoredFraction, frac_eq, serialize_frac
from .forms import (MobiusAction, RationalMap, ScalarOneForm, ScalarTwoForm,
                    divisor_pullback)
from .sl2 import (GroupWord, Mat2, Presentation, projective_closure,
                  verify_relations, word_evaluate)
from .reps import (RepTuple, TraceTuple, induced_representation,
                   irreducibility_witness, trace_coordinates,
                   verify_product_identity)
from .families import FAMILY_NAMES, builtin_family, restriction_assignment
from .braids import (BraidWord, OrbitResult, braid_act, center_check,
                     extended_orbit, full_twist, orbit, orbit_compare,
                     pure_generators)
from .connections import (CONNECTION_NAMES, MatConnection, RiccatiForm,
                          builtin_connection, flat_representative, is_flat,
                          mat_curvature, pullback_riccati, residue,
                          riccati_of_connection)
from .garnier import (GarnierData, LineRestriction, garnier_parametrization,
                      h21_extract, pole_positions, restrict_to_line)

__all__ = [
    "LaurentPoly", "VarContext", "parse_poly", "serialize_poly",
    "DenomBasis", "FactoredFraction", "frac_eq", "serialize_frac",
    "MobiusAction", "RationalMap", "ScalarOneForm", "ScalarTwoForm",
    "divisor_pullback",
    "GroupWord", "Mat2", "Presentation", "projective_closure",
    "verify_relations", "word_evaluate",
    "RepTuple", "TraceTuple", "induced_representation",
    "irreducibility_witness", "trace_coordinates", "verify_product_identity",
    "FAMILY_NAMES", "builtin_family", "restriction_assignment",
    "BraidWord", "OrbitResult", "braid_act", "center_check",
    "extended_orbit", "full_twist", "orbit", "orbit_compare",
    "pure_generators",
    "CONNECTION_NAMES", "MatConnection", "RiccatiForm", "builtin_connection",
    "flat_representative", "is_flat", "mat_curvature", "pullback_riccati",
    "residue", "riccati_of_connection",
    "GarnierData", "LineRestriction", "garnier_parametrization",
    "h21_extract", "pole_positions", "restrict_to_line",
]
