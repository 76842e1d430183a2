"""Exact Kulshammer-type invariants of finite dimensional algebras."""

from .algebra import (
    Algebra,
    AlgebraMorphism,
    BilinearForm,
    algebra_from_json,
    algebra_to_json,
    algebra_validate,
    morphism_validate,
    normalize_unit,
    opposite,
    symmetrizing_form_search,
    tensor_product,
    trivial_extension,
)
from .degree0 import (
    annihilator_in_dual,
    bhz_check,
    center,
    commutator_space,
    degree0_report,
    kappa_n_direct,
    kulshammer_T,
    perp,
    ppower_on_HH0,
    zeta_n,
)
from .fieldlin import (
    FiniteField,
    Matrix,
    RowReduction,
    SemilinearMap,
    Subspace,
    preimage,
    row_reduce,
)
from .hochschild import (
    Cochain,
    boundary_matrix,
    coboundary_matrix,
    cohomology,
    cup_power,
    cup_product,
    gram_matrix,
    hh_of_map,
    homology,
    induced_chain_map,
    pairing,
)
from .kappa import kappa_compare_symmetric, kappa_hat, kappa_m_n

# `oracle`, and through it `catalog`, loads on first use of one of its names
# (PEP 562): no command needs them, and every process compiles what it imports
_ORACLE = ("brute_force_Tn", "dual_numbers", "kunneth_dim_check", "periodic_hh_dual_numbers", "ta_iso_dual")


def __getattr__(name):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Algebra",
    "AlgebraMorphism",
    "BilinearForm",
    "Cochain",
    "FiniteField",
    "Matrix",
    "RowReduction",
    "SemilinearMap",
    "Subspace",
    "algebra_from_json",
    "algebra_to_json",
    "algebra_validate",
    "annihilator_in_dual",
    "bhz_check",
    "boundary_matrix",
    "brute_force_Tn",
    "center",
    "coboundary_matrix",
    "cohomology",
    "commutator_space",
    "cup_power",
    "cup_product",
    "degree0_report",
    "dual_numbers",
    "gram_matrix",
    "hh_of_map",
    "homology",
    "induced_chain_map",
    "kappa_compare_symmetric",
    "kappa_hat",
    "kappa_m_n",
    "kappa_n_direct",
    "kulshammer_T",
    "kunneth_dim_check",
    "morphism_validate",
    "normalize_unit",
    "opposite",
    "pairing",
    "periodic_hh_dual_numbers",
    "perp",
    "ppower_on_HH0",
    "preimage",
    "row_reduce",
    "symmetrizing_form_search",
    "ta_iso_dual",
    "tensor_product",
    "trivial_extension",
    "zeta_n",
]
