"""Exact-arithmetic Weyl-type algebras W(l1, l2, Gamma) over the rationals."""

from .algebra import (
    Element,
    FiltrationData,
    Monomial,
    Signature,
    act_on_A,
    alternating_binomial_sum,
    derivation_apply,
    element_from_dict,
    element_to_dict,
    filtration_data,
    multi_binomial,
    total_order_cmp,
)
from .automorphisms import (
    FunctionalAut,
    InnerExp,
    NormalFormAut,
    ShiftV,
    Sigma1,
    TauAut,
    apply_sigma1,
    compose_normal_forms,
    conjugated_shift,
    decompose_automorphism,
    verify_automorphism,
)
from .classification import (
    AdBehavior,
    IsoCandidate,
    classify_ad_behavior,
    faithfulness_witness,
    growth_probe,
    iso_search_bounded,
    iso_verify,
    signature_invariants,
)
from .expressions import eval_expr, format_element, parse_and_eval, parse_element
from .lattice import (
    BlockMatrix,
    Character,
    Lattice,
    aut2_membership,
    dual_derivation_basis,
)
from . import errors

__all__ = [
    "AdBehavior", "BlockMatrix", "Character", "Element", "FiltrationData",
    "FunctionalAut", "InnerExp", "IsoCandidate", "Lattice", "Monomial",
    "NormalFormAut", "ShiftV", "Sigma1", "Signature", "TauAut",
    "act_on_A", "alternating_binomial_sum", "apply_sigma1", "aut2_membership",
    "classify_ad_behavior", "compose_normal_forms", "conjugated_shift",
    "decompose_automorphism", "derivation_apply", "dual_derivation_basis",
    "element_from_dict", "element_to_dict", "errors", "eval_expr",
    "faithfulness_witness", "filtration_data", "format_element",
    "growth_probe", "iso_search_bounded", "iso_verify", "multi_binomial",
    "parse_and_eval", "parse_element", "signature_invariants", "total_order_cmp",
    "verify_automorphism",
]
