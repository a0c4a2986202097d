"""Exact-arithmetic Weyl-type algebras W(l1, l2, Gamma) over the rationals.

Each public name loads its module on first access (PEP 562), so that
``import weyltype`` and a ``weyl`` command compile only the modules they use;
``from weyltype import Element`` and ``weyltype.Element`` work as usual.
"""

import importlib

# the module that defines each public name; a module maps to itself
_MODULE_OF = {name: module for module, names in {
    "algebra": """Element FiltrationData Monomial Signature act_on_A alternating_binomial_sum
                  derivation_apply element_from_dict element_to_dict filtration_data
                  multi_binomial total_order_cmp""",
    "automorphisms": """FunctionalAut InnerExp NormalFormAut ShiftV TauAut apply_sigma1
                        compose_normal_forms conjugated_shift decompose_automorphism
                        verify_automorphism""",
    "classification": """AdBehavior IsoCandidate classify_ad_behavior faithfulness_witness
                         growth_probe iso_search_bounded iso_verify signature_invariants""",
    "expressions": "format_element parse_and_eval",
    "lattice": "BlockMatrix Character Lattice aut2_membership",
    "errors": "errors",
}.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module_name = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module_name}")
    if name != module_name:
        value = getattr(value, name)
    globals()[name] = value
    return value
