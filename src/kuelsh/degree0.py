"""Degree-0 Kulshammer theory.

Commutator space, centre, the semilinear p-power map on A/KA, the chain of
subspaces T_n = {x : x^{p^n} in KA}, orthogonal spaces against a symmetrizing
form, the adjoint maps zeta_n and kappa_n, annihilators in the dual space and
the trivial-extension identity relating them.
"""

from __future__ import annotations

import random

import numpy as np

from .algebra import BilinearForm, commutator_space, trivial_extension
from .errors import DegenerateForm, DimensionMismatch, WellDefinednessViolation
from .fieldlin import Matrix, SemilinearMap, Subspace, _power, _rank, preimage, row_reduce


def center(A):
    """{z : z e_i = e_i z for all i}, the joint kernel of commutation constraints."""
    d, c = A.dim, A.const
    # row (i, k) holds the equation sum_t z_t (c[t,i,k] - c[i,t,k]) = 0
    E = A.field.vsub(c.transpose(1, 2, 0), c.transpose(0, 2, 1)).reshape(d * d, d)
    return row_reduce(Matrix(A.field, E)).kernel


def hh0_data(A):
    """Quotient data of A/KA: (KA, coset representatives, coordinate map)."""
    key = "hh0"
    if key not in A._cache:
        ka = commutator_space(A)
        full = Subspace.full(A.field, A.dim)
        qmap, reps = full.quotient_map(ka)
        A._cache[key] = (ka, reps, qmap)
    return A._cache[key]


def ppower_on_HH0(A, n=1):
    """The p-power map mu^n on A/KA as a semilinear map with twist n.

    Well-definedness modulo KA is re-verified on random samples; a failure
    signals an implementation bug, since the statement is a theorem.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ka, reps, qmap = hh0_data(A)
    F = A.field
    M = F.mat_mul(qmap.data, A.power(reps.data, F.p).T)  # column j: class of rep_j^p
    mu = SemilinearMap(Matrix(F, M), twist=1)
    _verify_well_defined(A, ka, qmap)
    return _power(SemilinearMap.compose, mu, n)


_SEED, _TRIALS = 2, 100  # the fixed draws of `_verify_well_defined`


def _verify_well_defined(A, ka, qmap):
    if ka.dim == 0:
        return
    F, d = A.field, A.dim
    rng = random.Random(_SEED)
    # one row per trial: x's d coordinates, then the commutator's ka.dim
    draws = np.array(
        [[rng.randrange(F.q) for _ in range(d + ka.dim)] for _ in range(_TRIALS)],
        dtype=np.int64,
    )
    x, c = draws[:, :d], ka.lift(draws[:, d:])
    lhs = F.mat_mul(A.power(F.vadd(x, c), F.p), qmap.data.T)
    rhs = F.mat_mul(A.power(x, F.p), qmap.data.T)
    if not np.array_equal(lhs, rhs):
        raise WellDefinednessViolation("class(x^p) changed when x moved by a commutator")


def kulshammer_T(A, n):
    """T_n(A) = {x : x^{p^n} in KA}, through the semilinear kernel of mu^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    _, _, qmap = hh0_data(A)
    ker = ppower_on_HH0(A, n).kernel()
    return preimage(qmap, ker)


def perp(form, W, ambient):
    """{z in ambient : <z, w> = 0 for all w in W}."""
    G = form.gram
    if W.ambient_dim != G.rows or ambient.ambient_dim != G.rows:
        raise DimensionMismatch("form and subspaces must share one ambient space")
    if W.dim == 0:
        return ambient
    E = G.field.mat_mul(W.basis.data, G.data.T)  # rows: w |-> (G^T w)^T
    total = row_reduce(Matrix(G.field, E, copy=False)).kernel
    return total & ambient


def zeta_n(A, lam, n):
    """zeta_n on Z(A): <zeta(a), b> = <a, b^{p^n}>^{p^-n}; twist -n.

    Returned in the coordinates of the canonical centre basis.  The image is
    T_n(A)^perp by Kulshammer's theorem; callers may cross-check.
    """
    F = A.field
    form = BilinearForm.from_linear_form(A, lam)
    gram_red = row_reduce(form.gram.transpose())
    if gram_red.rank != A.dim:
        raise DegenerateForm("symmetrizing form has singular Gram matrix")
    Z = center(A)
    powers = A.power(np.eye(A.dim, dtype=np.int64), F.p**n)  # row j: e_j^{p^n}
    # row s: w_j = lam(a_s e_j^{p^n})^{p^-n} for the centre basis vector a_s
    W = F.vfrob(F.mat_mul(F.mat_mul(Z.basis.data, form.gram.data), powers.T), -n)
    za = gram_red.solve(W)  # row s: G^T zeta(a_s) = w
    return SemilinearMap(Matrix(F, Z.coords(za).T), twist=-n)


def kappa_n_direct(A, lam, n):
    """kappa_n on A/KA: <a^{p^n}, b> = <a, kappa(b)>^{p^n}; twist -n."""
    F = A.field
    form = BilinearForm.from_linear_form(A, lam)
    if _rank(form.gram) != A.dim:
        raise DegenerateForm("symmetrizing form has singular Gram matrix")
    Z = center(A)
    _, reps, _ = hh0_data(A)
    h = reps.rows
    if Z.dim != h:
        raise DegenerateForm("dim Z(A) and dim A/KA differ; form cannot be symmetrizing")
    # gram0[s, t] = lam(z_s b_t) for the centre basis z_s and representatives b_t
    G, B = form.gram.data, reps.data.T
    g0 = row_reduce(Matrix(F, F.mat_mul(F.mat_mul(Z.basis.data, G), B)))
    if g0.rank != h:
        raise DegenerateForm("pairing of Z(A) with A/KA is degenerate")
    # row t: w_s = lam(z_s^{p^n} b_t)^{p^-n}
    zp = A.power(Z.basis.data, F.p**n)
    W = F.vfrob(F.mat_mul(F.mat_mul(zp, G), B), -n).T
    return SemilinearMap(Matrix(F, g0.solve(W).T), twist=-n)


def annihilator_in_dual(A, W):
    """{f in A* : f(W) = 0}; dimension d - dim W."""
    if W.ambient_dim != A.dim:
        raise DimensionMismatch("subspace does not live in the algebra")
    return row_reduce(W.basis).kernel


class BhzReport:
    def __init__(self, holds, lhs, rhs, pullback_holds=None):
        self.holds = holds
        self.lhs = lhs  # T_n(TA)^perp inside Z(TA)
        self.rhs = rhs  # {0} + Ann_{A*}(T_n(A)) in TA coordinates
        self.pullback_holds = pullback_holds  # for symmetric A only, else None


def bhz_check(A, n, lam=None):
    """T_n(TA)^perp = {0} + Ann_{A*}(T_n(A)), both sides computed independently.

    When a symmetrizing form lam of A itself is supplied, additionally checks
    that pulling Ann(T_n(A)) back through z |-> <z, -> recovers T_n(A)^perp.
    """
    te = trivial_extension(A)
    TA = te.algebra
    lhs = perp(te.form, kulshammer_T(TA, n), center(TA))
    tn = kulshammer_T(A, n)
    ann = annihilator_in_dual(A, tn)
    d = A.dim
    emb = np.zeros((ann.dim, 2 * d), dtype=np.int64)
    if ann.dim:
        emb[:, d:] = ann.basis.data
    rhs = Subspace(A.field, 2 * d, emb)
    pullback = None
    if lam is not None:
        form = BilinearForm.from_linear_form(A, lam)
        Z = center(A)
        tperp = perp(form, tn, Z)
        pulled = preimage(form.gram.transpose(), ann) & Z
        pullback = pulled == tperp
    return BhzReport(lhs == rhs, lhs, rhs, pullback)


class DegreeZeroReport:
    def __init__(self, ka, z, t, ann, bhz):
        self.ka = ka
        self.z = z
        self.t = t  # T_1 .. T_N
        self.ann = ann  # Ann_{A*}(T_n)
        self.bhz = bhz  # verdicts per n
        # with a symmetrizing form only
        self.t_perp = self.zeta = self.kappa = None


def degree0_report(A, n_max, lam=None):
    """The full degree-0 suite for n = 1..n_max."""
    ka = commutator_space(A)
    z = center(A)
    t = [kulshammer_T(A, n) for n in range(1, n_max + 1)]
    ann = [annihilator_in_dual(A, tn) for tn in t]
    bhz = [bhz_check(A, n).holds for n in range(1, n_max + 1)]
    rep = DegreeZeroReport(ka, z, t, ann, bhz)
    if lam is not None:
        form = BilinearForm.from_linear_form(A, lam)
        rep.t_perp = [perp(form, tn, z) for tn in t]
        rep.zeta = zeta_n(A, lam, n_max)
        rep.kappa = kappa_n_direct(A, lam, n_max)
    return rep
