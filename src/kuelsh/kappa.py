"""Higher Kulshammer maps on Hochschild homology.

For a symmetric algebra the map kappa_n^(m) sends HH_{p^n m} to HH_m and is
pinned down by pairing cup powers of degree-m cocycles against homology
classes.  For arbitrary algebras the same construction runs inside the
trivial extension and is pushed back through the canonical splitting.

The core routine evaluates kappa on explicit cycles: the duality pairing is
a chain-level formula that descends to homology, so the domain classes never
need to be re-expressed in a homology basis of the big algebra.  That keeps
the trivial-extension computation inside the chain spaces of the classes
being pushed (the dominating object for the dual numbers at p = 3 is the
4 * 3^6 column chain space, nothing larger).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BilinearForm, trivial_extension
from .errors import DegenerateForm, NotACocycle, NotACycle
from .fieldlin import Matrix, SemilinearMap, _as_rows, row_reduce
from .hochschild import (
    Cochain,
    _pairing_rows,
    boundary_apply,
    chain_dim,
    chain_map_apply,
    coboundary_apply,
    cohomology,
    cup_power,
    hh_of_map,
    homology,
)


@dataclass
class KappaMap:
    domain_degree: int  # p^n m
    codomain_degree: int  # m
    map: SemilinearMap

    @property
    def matrix(self):
        return self.map.matrix

    @property
    def twist(self):
        return self.map.twist

    @property
    def rank(self):
        return self.map.rank


def _kappa_on_cycles(A, lam, m, n, cycles):
    """Coordinates in the HH_m(A) basis of kappa applied to explicit cycles,
    the rows of a block or a list of vectors; one column per cycle.

    Solves G c = phi^{-n}(b) with b_i = <z_i^{p^n}, cycle> for the canonical
    cohomology representatives z_i and the degree-m Gram matrix G.
    """
    F = A.field
    coh, hom = cohomology(A, m), homology(A, m)
    if coh.dimension != hom.dimension:
        raise DegenerateForm(
            f"degree-{m} homology and cohomology dimensions differ; "
            "the duality pairing cannot be nondegenerate"
        )
    form = BilinearForm.from_linear_form(A, lam)  # one Gram matrix for both pairings
    G = F.mat_mul(_pairing_rows(form, m, coh.representatives), hom.representatives.T)  # gram_matrix
    gred = row_reduce(Matrix(F, G, copy=False))
    if gred.rank != len(G):
        raise DegenerateForm(f"degree-{m} duality Gram matrix is singular")
    e = F.p**n
    powers = [cup_power(Cochain.from_flat(A, m, zf), e) for zf in coh.representatives]
    if not all(coboundary_apply(cz).is_zero() for cz in powers):
        raise NotACocycle("cup power of a cocycle failed to be a cocycle")
    W = _pairing_rows(form, e * m, [cz.flat() for cz in powers])
    X = _as_rows(F, cycles, chain_dim(A, e * m), ndim=2)
    if e * m >= 1 and boundary_apply(A, e * m, X).any():
        raise NotACycle("kappa applied to a chain that is not a cycle")
    B = F.vfrob(F.mat_mul(X, W.T), -n)  # row j: phi^{-n}(b) for cycle j
    return Matrix(F, gred.solve(B).T, copy=False)


def kappa_m_n(A, lam, m, n):
    """kappa_n^(m): HH_{p^n m}(A) -> HH_m(A) for a symmetric algebra."""
    dom = homology(A, A.field.p**n * m)
    M = _kappa_on_cycles(A, lam, m, n, dom.representatives)
    return KappaMap(A.field.p**n * m, m, SemilinearMap(M, twist=-n))


def kappa_hat(A, m, n):
    """The trivial-extension route, defined with no symmetry assumption on A.

    Composes the homology push-in along the inclusion, kappa over the
    trivial extension with its canonical form, and the push-back along the
    projection; kappa over the extension is evaluated directly on the
    pushed cycles, which the chain-level pairing allows.
    """
    F = A.field
    te = trivial_extension(A)
    TA = te.algebra
    e = F.p**n
    dom = homology(A, e * m)
    pushed = chain_map_apply(te.iota, e * m, dom.representatives)
    inner = _kappa_on_cycles(TA, te.lam, m, n, pushed)
    down = hh_of_map(te.pi, m)
    return KappaMap(e * m, m, SemilinearMap(down @ inner, twist=-n))


@dataclass
class KappaComparison:
    equal: bool
    kappa: KappaMap
    kappa_hat: KappaMap


def kappa_compare_symmetric(A, lam, m, n):
    """Compute both routes on the same canonical bases and compare.

    Equality of the two maps is a theorem only where the source material
    proves one (the dual numbers); for other symmetric algebras this is a
    report, not an assertion.
    """
    plain = kappa_m_n(A, lam, m, n)
    hat = kappa_hat(A, m, n)
    equal = plain.map == hat.map
    return KappaComparison(equal, plain, hat)
