"""Independent ground-truth generators.

The dual-numbers algebra has a period-2 bimodule resolution whose tensored
and hom-ed down complexes have alternating differentials 0 and 2*eps; its
homology is computed here from 2x2 matrices, with no bar complex involved.
Together with a Kunneth dimension count, an explicit isomorphism between the
trivial extension of the dual numbers and their tensor square, and literal
set-enumeration of T_n on tiny algebras, these certify the main pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraMorphism, tensor_product, trivial_extension
from .catalog import dual_numbers
from .degree0 import commutator_space
from .errors import TooLargeToEnumerate
from .fieldlin import Matrix, Subspace, row_reduce
from .hochschild import homology

ENUMERATION_BOUND = 3**6


@dataclass
class PeriodicHH:
    degree: int
    dimension: int
    representatives: tuple  # vectors in the dual-numbers coordinates


def periodic_hh_dual_numbers(F, m):
    """HH_m of k[eps]/(eps^2) from the period-2 complex A <-0- A <-2eps- A ...

    The even differential is multiplication by 2*eps; the odd one is zero.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    A = dual_numbers(F)
    L = A.left_mult_matrix(A.basis_vector(1))
    two_eps = Matrix(F, F.vmul(F.add(1, 1), L))
    full = Subspace.full(F, 2)
    if m == 0:
        cycles = full
        image = Subspace(F, 2)  # d_1 = 0
    elif m % 2 == 1:
        cycles = full  # d_odd = 0
        image = Subspace(F, 2, two_eps.data.T)  # d_{m+1} is the even map
    else:
        cycles = row_reduce(two_eps).kernel
        image = Subspace(F, 2)  # d_{m+1} = 0
    reps = cycles.quotient_basis(image)
    return PeriodicHH(m, reps.rows, tuple(row for row in reps.data))


@dataclass
class KunnethVerdict:
    degree: int
    tensor_side: int  # dim HH_m(A (x) A) from the bar complex
    product_side: int  # sum of dim HH_i(A) * dim HH_j(A), i + j = m
    ok: bool


def kunneth_dim_check(A, max_degree):
    """Dimension-level Kunneth check for A (x) A, both sides computed."""
    AA = tensor_product(A, A)
    factor_dims = [homology(A, m).dimension for m in range(max_degree + 1)]
    out = []
    for m in range(max_degree + 1):
        lhs = homology(AA, m).dimension
        rhs = sum(factor_dims[i] * factor_dims[m - i] for i in range(m + 1))
        out.append(KunnethVerdict(m, lhs, rhs, lhs == rhs))
    return out


def ta_iso_dual(F):
    """The explicit isomorphism T(k[eps]/eps^2) -> k[eps]/eps^2 (x) k[eps]/eps^2.

    Sends the two square-zero generators of the trivial extension to the two
    commuting loops eps(x)1 and 1(x)eps; one concrete choice among the basis
    freedoms is fixed here once and for all.
    """
    A = dual_numbers(F)
    te = trivial_extension(A)
    AA = tensor_product(A, A)
    # source basis: 1, eps-hat, sigma = eps^*, delta = 1^*
    # images:       1(x)1, eps(x)1, eps(x)eps, 1(x)eps
    M = np.zeros((4, 4), dtype=np.int64)
    M[0, 0] = 1
    M[2, 1] = 1
    M[3, 2] = 1
    M[1, 3] = 1
    return AlgebraMorphism(te.algebra, AA, Matrix(F, M, copy=False))


def brute_force_Tn(A, n):
    """T_n(A) by literal enumeration of all elements; the certifying oracle."""
    F = A.field
    total = F.q**A.dim
    if total > ENUMERATION_BOUND:
        raise TooLargeToEnumerate(
            f"{total} elements exceed the enumeration bound {ENUMERATION_BOUND}"
        )
    ka = commutator_space(A)
    pn = F.p**n
    hits = []
    for coords in itertools.product(range(F.q), repeat=A.dim):
        x = np.array(coords, dtype=np.int64)
        if not x.any():
            continue
        if ka.contains_vector(A.power(x, pn)):
            hits.append(x)
    if not hits:
        return Subspace(F, A.dim)
    return Subspace(F, A.dim, np.stack(hits))
