"""Higher Kulshammer maps on Hochschild homology.

For a symmetric algebra the map kappa_n^(m) sends HH_{p^n m} to HH_m and is
pinned down by pairing cup powers of degree-m cocycles against homology
classes.  For arbitrary algebras the same construction runs inside the
trivial extension T(A) and is pushed back through the canonical splitting.

kappa is evaluated on explicit cycles, since the chain-level pairing descends
to homology.  For e = p^n and a cycle x = a_0 (x) G_1 (x) .. (x) G_e of A, each
G_j a group of m slots, pushed along theta (the identity or A -> T(A)),
<z^e, theta_* x> = lam(z(tG_1) .. z(tG_e) theta(a_0)), tG the image of G under
theta_bar.  That is contracted one slot group at a time in A's chain space:
neither z^e nor theta_* x is formed.  For the dual numbers at p = 3, m = 2 and
n = 2 the cycles have 2 coordinates; T(A)'s degree-18 chains have 4 * 3^18.
"""

from __future__ import annotations

import numpy as np

from .algebra import identity_morphism, trivial_extension
from .errors import DegenerateForm, NotACocycle, NotACycle
from .fieldlin import Matrix, SemilinearMap, _as_rows, _power, row_reduce
from .hochschild import (
    _apply,
    _coboundary_terms,
    _slot_mul,
    boundary_apply,
    chain_dim,
    cohomology,
    gram_matrix,
    hh_of_map,
    homology,
)


class KappaMap:
    def __init__(self, domain_degree, codomain_degree, map):
        self.domain_degree = domain_degree  # p^n m
        self.codomain_degree = codomain_degree  # m
        self.map = map  # a SemilinearMap

    @property
    def matrix(self):
        return self.map.matrix

    @property
    def twist(self):
        return self.map.twist

    @property
    def rank(self):
        return self.map.rank


def _pairing_of_powers(theta, lam, m, e, cochains, X):
    """b[j, i] = <z_i^e, theta_* x_j> for the rows z_i of a block of degree-m
    cochains of theta's target T and the rows x_j of a block X of degree-e*m
    chains of its source A.  Each z is pulled back along theta_bar and folded
    with T's structure constants into L[(G, t), t'], the coefficients of
    z(tG) e_t; after slot 0 of X goes through theta, the slot groups are
    contracted right to left, each by one (k g^left, g D) x (g D, D) product."""
    A, T, M = theta.source, theta.target, theta.matrix.data
    F, d, D = T.field, A.dim, T.dim
    k, kz, g = len(X), len(cochains), (d - 1) ** m
    Z = np.asarray(cochains, dtype=np.int64)
    for i in range(m):
        Z = _slot_mul(F, M[1:, 1:].T, Z, kz * (d - 1) ** i, (D - 1) ** (m - 1 - i) * D)
    L = F.mat_mul(Z.reshape(kz * g, D), T.const.reshape(D, D * D)).reshape(kz, g * D, D)
    right = F.mat_mul(X.reshape(k, d, g**e).transpose(0, 2, 1).reshape(k * g**e, d), M.T)
    B = np.zeros((k, kz), dtype=np.int64)
    for i in range(kz):
        if g == 1:  # every slot group is one index: the e products are L[i]^e
            Y = F.mat_mul(right, _power(F.mat_mul, L[i], e))
        else:
            Y = right
            for left in range(e - 1, -1, -1):
                Y = F.mat_mul(Y.reshape(k * g**left, g * D), L[i])
        B[:, i] = F.mat_mul(Y, lam)
    return B


def _kappa_on_cycles(T, lam, m, n, cycles, theta=None):
    """Coordinates in the HH_m(T) basis of kappa applied to theta_* of explicit
    cycles of theta's source (theta defaults to the identity of T), the rows
    of a block or a list of vectors; one column per cycle.

    Solves G c = phi^{-n}(b) with G = gram_matrix(T, lam, m) and
    b_i = <z_i^{p^n}, theta_* cycle> for the cohomology representatives z_i.
    dz_i = 0 is checked, and makes z_i^{p^n} a cocycle by the Leibniz rule.
    """
    theta = theta or identity_morphism(T)
    A, F, e = theta.source, T.field, T.field.p**n
    lam = _as_rows(F, lam, T.dim, ndim=1)
    coh, hom = cohomology(T, m), homology(T, m)
    if coh.dimension != hom.dimension:
        raise DegenerateForm(
            f"degree-{m} homology and cohomology dimensions differ; "
            "the duality pairing cannot be nondegenerate"
        )
    gred = row_reduce(gram_matrix(T, lam, m))
    if gred.rank != coh.dimension:
        raise DegenerateForm(f"degree-{m} duality Gram matrix is singular")
    if _apply(F, _coboundary_terms(T, m), coh.representatives).any():
        raise NotACocycle("cohomology representative failed to be a cocycle")
    X = _as_rows(F, cycles, chain_dim(A, e * m), ndim=2)
    if e * m >= 1 and boundary_apply(A, e * m, X).any():
        raise NotACycle("kappa applied to a chain that is not a cycle")
    B = F.vfrob(_pairing_of_powers(theta, lam, m, e, coh.representatives, X), -n)
    return Matrix(F, gred.solve(B).T, copy=False)


def kappa_m_n(A, lam, m, n):
    """kappa_n^(m): HH_{p^n m}(A) -> HH_m(A) for a symmetric algebra."""
    dom = homology(A, A.field.p**n * m)
    M = _kappa_on_cycles(A, lam, m, n, dom.representatives)
    return KappaMap(A.field.p**n * m, m, SemilinearMap(M, twist=-n))


def kappa_hat(A, m, n):
    """The trivial-extension route, defined with no symmetry assumption on A.

    Composes the homology push-in along the inclusion iota, kappa over the
    trivial extension with its canonical form, and the push-back along the
    projection; kappa over the extension is evaluated on iota_* of A's
    cycles without forming them, which the chain-level pairing allows.
    """
    te = trivial_extension(A)
    e = A.field.p**n
    dom = homology(A, e * m)
    inner = _kappa_on_cycles(te.algebra, te.lam, m, n, dom.representatives, te.iota)
    down = hh_of_map(te.pi, m)
    return KappaMap(e * m, m, SemilinearMap(down @ inner, twist=-n))


class KappaComparison:
    def __init__(self, equal, kappa, kappa_hat):
        self.equal = equal
        self.kappa = kappa
        self.kappa_hat = kappa_hat


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
