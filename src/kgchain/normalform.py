"""Lie-transform engine: homological solver, normal-form recursion, GdNLS.

Grading: grade s holds homogeneous polynomials of degree 2s+2, so the
quadratic part H_0 = H_Omega + Z_0 sits at grade 0 and the quartic h_1 at
grade 1.  The Lie transform of a generating sequence chi_1..chi_r is

    T = sum_s E_s,   E_0 = Id,   E_s = sum_j (j/s) L_{chi_j} E_{s-j},

and its inverse is built from D_0 = Id, D_s = -sum_j (j/s) D_{s-j} L_{chi_j}.

Sign convention (fixed project-wide, pinned by the round-trip tests
T(H_Omega + Z + remainder) = H): the homological equation solved at each
grade is

    L_{H_0} chi_s = Z_s - Psi_s,      Z_s = Pi_kernel(Psi_s),

with Psi_1 = h_1 and, for s >= 2,

    Psi_s = -[ (s-1)/s L_{chi_{s-1}} h_1 + sum_{l<s} (l/s) E_{s-l} Z_l ].

With this arrangement the grade-s component of T(normal form) reproduces
the original Hamiltonian, and the decoupled limit gives the classical
positive kernel average (Z_1 = (3/32)(q^2+p^2)^2 for the unit oscillator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chainpoly import (
    BIRKHOFF,
    REAL,
    DecayProfile,
    ExpKey,
    SeedPoly,
    fit_decay,
    poly_norm,
    seed_to_dict,
    sum_polys,
    to_complex,
    to_real,
)
from .cyclic import seed_bracket, symmetric_parts
from .linearize import LinearNF, linear_normalize


class NormalFormError(RuntimeError):
    pass


class NeumannDivergenceError(NormalFormError):
    """Neumann iteration for the homological equation diverged."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or
                         f"Neumann series diverged at normal-form step {step}"
                         " (coupling too large for this order)")


class KernelLeakageError(NormalFormError):
    pass


# Term cap of the Neumann series in solve_homological; hitting it is an error.
NEUMANN_MAX_TERMS = 200
# Kernel mass of an invert_lie_omega input, relative to its ||.||_1, that is
# dropped as float noise; a larger one is an error.
KERNEL_LEAK_TOL = 1e-12


# -- the diagonal operator L_Omega ------------------------------------------

def _imbalance(key: ExpKey) -> int:
    """|k| - |j|: total second-block minus first-block exponents."""
    return sum(b - a for _, a, b in key)


def lie_omega(f: SeedPoly, omega: float) -> SeedPoly:
    """Diagonal action L_Omega xi^j eta^k = i Omega (|k|-|j|) xi^j eta^k."""
    if f.kind != BIRKHOFF:
        f = to_complex(f)
    acc = {}
    for k, c in f._terms.items():
        d = _imbalance(k)
        if d:
            acc[k] = c * (1j * omega * d)
    return SeedPoly(BIRKHOFF, f.n, acc, _skip_clean=True)


def project_kernel(f: SeedPoly) -> SeedPoly:
    if f.kind != BIRKHOFF:
        f = to_complex(f)
    return SeedPoly(BIRKHOFF, f.n,
                    {k: c for k, c in f._terms.items() if _imbalance(k) == 0},
                    _skip_clean=True)


def project_range(f: SeedPoly) -> SeedPoly:
    if f.kind != BIRKHOFF:
        f = to_complex(f)
    return SeedPoly(BIRKHOFF, f.n,
                    {k: c for k, c in f._terms.items() if _imbalance(k) != 0},
                    _skip_clean=True)


def invert_lie_omega(g: SeedPoly, omega: float) -> SeedPoly:
    """Unique inverse on the range: divide by i Omega (|k|-|j|).

    A kernel component above ``KERNEL_LEAK_TOL`` (relative to ||g||_1) is
    an error; a smaller one is float noise and is dropped.
    """
    if g.kind != BIRKHOFF:
        g = to_complex(g)
    total = poly_norm(g, 1.0)
    kernel_mass = sum(abs(c) for k, c in g._terms.items()
                      if _imbalance(k) == 0)
    if kernel_mass > KERNEL_LEAK_TOL * max(total, 1e-300):
        raise KernelLeakageError(
            f"input has kernel component of relative size "
            f"{kernel_mass / max(total, 1e-300):.3e}")
    acc = {}
    for k, c in g._terms.items():
        d = _imbalance(k)
        if d:
            acc[k] = c / (1j * omega * d)
    return SeedPoly(BIRKHOFF, g.n, acc, _skip_clean=True)


# -- homological equation ----------------------------------------------------

def solve_homological(psi: SeedPoly, zeta0: SeedPoly, omega: float,
                      tol: float = 1e-12, prune_rel: float | None = None,
                      ) -> tuple[SeedPoly, SeedPoly]:
    """Solve L_{H_0} chi + zeta = psi with zeta in the kernel of L_Omega.

    The inverse of L_{H_0} = L_Omega (Id + K), K = L_Omega^{-1} L_{Z_0},
    is applied through the Neumann series sum_l (-K)^l L_Omega^{-1},
    iterated until the next term's seed norm drops below tol * ||psi||_1.
    Term growth over three consecutive iterations, or no settling within
    ``NEUMANN_MAX_TERMS`` terms, raises :class:`NeumannDivergenceError`
    (the operator-norm smallness that guarantees convergence no longer
    holds).
    """
    if psi.kind != BIRKHOFF:
        psi = to_complex(psi)
    if zeta0.kind != BIRKHOFF:
        zeta0 = to_complex(zeta0)

    zeta = project_kernel(psi)
    g = psi - zeta
    scale = poly_norm(psi, 1.0)
    if g.is_zero():
        return SeedPoly.zero(BIRKHOFF, psi.n), zeta

    term = invert_lie_omega(g, omega)
    total = term
    prev_norm = poly_norm(term, 1.0)
    growth = 0
    for _ in range(NEUMANN_MAX_TERMS):
        if prev_norm <= tol * scale:
            break
        bracket = seed_bracket(zeta0, term, prune_rel=prune_rel)
        term = invert_lie_omega(bracket, omega).scaled(-1.0)
        total = total + term
        norm = poly_norm(term, 1.0)
        growth = growth + 1 if norm > prev_norm else 0
        if growth >= 3:
            raise NeumannDivergenceError(0)
        prev_norm = norm
    else:
        raise NeumannDivergenceError(0, "Neumann series did not settle")
    chi = total
    return chi, zeta


def homological_residual(chi: SeedPoly, zeta: SeedPoly, psi: SeedPoly,
                         zeta0: SeedPoly, omega: float) -> float:
    """||L_{H_0} chi + zeta - psi||_1 (all in Birkhoff kind)."""
    lh0 = lie_omega(chi, omega) + seed_bracket(zeta0, chi)
    return poly_norm(lh0 + zeta - psi, 1.0)


# -- result containers -------------------------------------------------------

@dataclass
class GeneratingSequence:
    """Seeds chi_1..chi_r of the Lie transform."""
    order: int
    chis: list[SeedPoly]


@dataclass
class NormalFormResult:
    lnf: LinearNF
    seq: GeneratingSequence
    zetas: list[SeedPoly]          # zeta_1..zeta_r, real kind
    remainder: list[SeedPoly]      # seeds h^(r)_s for s = r+1.., real kind
    s_max: int
    soft: bool
    tol: float
    # internals reused by remainder/bound computations (real kind)
    _h1: SeedPoly | None = None
    _ranges: list[SeedPoly] | None = None   # Psi_s - Z_s = -L_{H0} chi_s
    _prune_rel: float | None = None

    @property
    def order(self) -> int:
        return self.seq.order

    def hamiltonian_seed(self) -> SeedPoly:
        """Seed of the linearly transformed Hamiltonian H."""
        h1 = self.lnf.h1.scaled(-1.0) if self.soft else self.lnf.h1
        return self.lnf.h_omega + self.lnf.zeta0 + h1

    def normal_form_seed(self) -> SeedPoly:
        """Seed of H_Omega + Z_0 + Z_1..Z_r + the remainder head."""
        return sum_polys([self.lnf.h_omega, self.lnf.zeta0]
                         + list(self.zetas) + list(self.remainder))

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "soft": self.soft,
            "tol": self.tol,
            "linear": self.lnf.to_dict(),
            "generating": [{"s": s + 1, "seed": seed_to_dict(chi)}
                           for s, chi in enumerate(self.seq.chis)],
            "normalized": [seed_to_dict(z) for z in self.zetas],
            "remainder_head": [seed_to_dict(h) for h in self.remainder],
        }


# -- the recursion ------------------------------------------------------------

class _LieEngine:
    """Seed-level E_s / D_s applications for one generating sequence.

    Results are memoised under the recursion's own structure, which
    collapses the shared sub-brackets of the triangular recursions: E_s f
    under (s, root), and each L_{chi_j} image of the D recursion under
    (root, path of j's).  Callers name the root that f stands for, and
    must use one root per polynomial.
    """

    def __init__(self, chis: list[SeedPoly], prune_rel: float | None):
        self.chis = chis
        self.prune = prune_rel
        self._memo: dict[tuple, SeedPoly] = {}

    def lie(self, j: int, f: SeedPoly) -> SeedPoly:
        """L_{chi_j} f at seed level (a seed of {chi_j^+, F})."""
        return seed_bracket(self.chis[j - 1], f, prune_rel=self.prune)

    def e_apply(self, s: int, f: SeedPoly, root) -> SeedPoly:
        if s == 0:
            return f
        key = ("E", s, root)
        if key not in self._memo:
            parts = [self.lie(j, self.e_apply(s - j, f, root)).scaled(j / s)
                     for j in range(1, min(s, len(self.chis)) + 1)]
            self._memo[key] = sum_polys(parts, kind=f.kind, n=f.n)
        return self._memo[key]

    def d_apply(self, s: int, f: SeedPoly, root,
                path: tuple = ()) -> SeedPoly:
        if s == 0:
            return f
        parts = []
        for j in range(1, min(s, len(self.chis)) + 1):
            key = ("L", root, path + (j,))
            if key not in self._memo:
                self._memo[key] = self.lie(j, f)
            parts.append(self.d_apply(s - j, self._memo[key], root,
                                      path + (j,)).scaled(-j / s))
        return sum_polys(parts, kind=f.kind, n=f.n)


def normal_form(lnf: LinearNF, order: int, tol: float = 1e-12,
                soft: bool = False, s_max: int | None = None,
                prune_rel: float | None = None) -> NormalFormResult:
    """Run ``order`` normalizing steps on the transformed Hamiltonian.

    Every bracket is evaluated at the seed level.  The hypothesis
    r < mu_*/(2 mu) of the order bound is not checked here: it is
    sufficient for convergence, and desk experiments can converge beyond
    it (divergence is detected adaptively instead).  The order bound and
    the step rates come from :func:`kgchain.bounds.constants`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    omega = lnf.omega
    h1_real = lnf.h1.scaled(-1.0) if soft else lnf.h1
    if prune_rel is not None:
        h1_real = h1_real.prune(prune_rel)
    zeta0_b = to_complex(lnf.zeta0)

    # The recursion runs in real coordinates (far fewer terms); only the
    # kernel/range splitting and the diagonal inversion go through the
    # complex coordinates inside the solver.
    chis: list[SeedPoly] = []
    zetas: list[SeedPoly] = []
    ranges: list[SeedPoly] = []
    engine = _LieEngine(chis, prune_rel)

    for s in range(1, order + 1):
        if s == 1:
            psi = h1_real
        else:
            parts = [engine.lie(s - 1, h1_real).scaled((s - 1) / s)]
            for l in range(1, s):
                parts.append(engine.e_apply(s - l, zetas[l - 1], l)
                             .scaled(l / s))
            psi = sum_polys(parts).scaled(-1.0)
        if prune_rel is not None:
            psi = psi.prune(prune_rel)
        try:
            chi_t, zeta_b = solve_homological(to_complex(psi), zeta0_b,
                                              omega, tol=tol,
                                              prune_rel=prune_rel)
        except NeumannDivergenceError as exc:
            raise NeumannDivergenceError(s) from exc
        chi = to_real(chi_t.scaled(-1.0))   # L_{H0} chi_s = Z_s - Psi_s
        zeta = to_real(zeta_b)
        if prune_rel is not None:
            chi = chi.prune(prune_rel)
            zeta = zeta.prune(prune_rel)
        chis.append(chi)
        zetas.append(zeta)
        ranges.append(psi - zeta)

    res = NormalFormResult(
        lnf=lnf, seq=GeneratingSequence(order, chis), zetas=zetas,
        remainder=[], s_max=order, soft=soft, tol=tol, _h1=h1_real,
        _ranges=ranges, _prune_rel=prune_rel)
    if s_max is not None:
        res.remainder = remainder_head(res, s_max)
        res.s_max = s_max
    return res


def remainder_head(res: NormalFormResult, s_max: int) -> list[SeedPoly]:
    """Seeds h^(r)_s of the remainder for s = r+1..s_max.

    Uses the inverse-transform operators: h^(r)_s = D_{s-1} h_1
    - sum_{j<=r} (j/s) D_{s-j} (Psi_j - Z_j); the second factor is the
    range part -L_{H_0} chi_j stored during the construction.
    """
    r = res.order
    if s_max < r + 1:
        raise ValueError("s_max must be at least order+1")
    engine = _LieEngine(res.seq.chis, res._prune_rel)
    out = []
    for s in range(r + 1, s_max + 1):
        parts = [engine.d_apply(s - 1, res._h1, 0)]
        for j in range(1, r + 1):
            parts.append(engine.d_apply(s - j, res._ranges[j - 1], j)
                         .scaled(-j / s))
        out.append(sum_polys(parts))
    return out


def lie_transform_apply(seq: GeneratingSequence | NormalFormResult,
                        f: SeedPoly, degree_cap: int,
                        prune_rel: float | None = None,
                        inverse: bool = False) -> SeedPoly:
    """Graded application of T (or its D-series inverse) up to degree_cap."""
    chis = seq.seq.chis if isinstance(seq, NormalFormResult) else seq.chis
    if chis and chis[0].kind != f.kind:
        chis = [to_complex(c) if f.kind == BIRKHOFF else to_real(c)
                for c in chis]
    engine = _LieEngine(chis, prune_rel)
    op = engine.d_apply if inverse else engine.e_apply
    parts = []
    for d0, piece in sorted(f.graded_parts().items()):
        if d0 > degree_cap:
            continue
        s = 0
        while d0 + 2 * s <= degree_cap:
            term = op(s, piece, d0)
            parts.append(SeedPoly(term.kind, term.n,
                                  {k: v for k, v in term._terms.items()
                                   if sum(a + b for _, a, b in k)
                                   <= degree_cap}, _skip_clean=True))
            s += 1
    return sum_polys(parts, kind=f.kind, n=f.n)


def lie_transform_inverse(seq, f: SeedPoly, degree_cap: int,
                          prune_rel: float | None = None) -> SeedPoly:
    return lie_transform_apply(seq, f, degree_cap, prune_rel, inverse=True)


# -- GdNLS extraction ---------------------------------------------------------

@dataclass
class GdnlsModel:
    """First-order normal form K = H_Omega + Z_0 + Z_1 as a GdNLS chain."""
    n: int
    a: float
    mu: float
    omega: float
    b: np.ndarray                       # quadratic couplings b_1..b_{N/2}
    zeta1_parts: dict[int, SeedPoly]    # symmetric-aligned quartic parts
    zeta1_profile: DecayProfile
    zeta1: SeedPoly
    k_seed: SeedPoly                    # h_Omega + zeta_0 + zeta_1
    reference: dict
    lnf: LinearNF = field(repr=False)   # linear normal form it came from

    def to_dict(self) -> dict:
        return {
            "n": self.n, "a": self.a, "mu": self.mu, "omega": self.omega,
            "b": list(self.b),
            "zeta1_part_norms": {str(m): poly_norm(p, 1.0)
                                 for m, p in self.zeta1_parts.items()},
            "zeta1_profile": {"c": self.zeta1_profile.c,
                              "sigma": self.zeta1_profile.sigma,
                              "pairs": [list(p)
                                        for p in self.zeta1_profile.pairs]},
            "reference": self.reference,
            "zeta1": seed_to_dict(self.zeta1),
        }


def extract_gdnls(res: NormalFormResult) -> GdnlsModel:
    """Read the GdNLS data off a normal form of order >= 1.

    The reference block carries the nearest-neighbour dNLS coefficients
    this model perturbs: coupling mu/2, and both on-site quartic
    normalizations in circulation (the displayed 3/2 and the direct kernel
    average 3/32 of q^4/4; the structure, not the constant, is asserted).
    """
    if res.order < 1:
        raise ValueError("GdNLS extraction needs order >= 1")
    lnf = res.lnf
    zeta1 = res.zetas[0]
    parts = symmetric_parts(zeta1)
    profile = fit_decay(parts)
    k_seed = lnf.h_omega + lnf.zeta0 + zeta1
    reference = {
        "dnls_coupling": lnf.mu / 2.0,
        "dnls_onsite_display": 1.5,
        "dnls_onsite_kernel_average": 3.0 / 32.0,
        "scaled_birkhoff_quadratic": lnf.a / 2.0,
    }
    return GdnlsModel(n=lnf.n, a=lnf.a, mu=lnf.mu, omega=lnf.omega,
                      b=lnf.b, zeta1_parts=parts, zeta1_profile=profile,
                      zeta1=zeta1, k_seed=k_seed, reference=reference,
                      lnf=lnf)


# -- the standard two-step dNLS pipeline -------------------------------------

@dataclass
class StandardDnls:
    """Outcome of the two-step resonant normalization of the scaled chain."""
    a: float
    energy: float
    n: int
    z0: SeedPoly          # resonant quadratic a/2 sum |xi_{j+1}-xi_j|^2
    z1: SeedPoly          # resonant quartic 3E/8 sum |xi_j|^4
    chi0: SeedPoly        # removes the non-resonant quadratic part
    hamiltonian: SeedPoly  # h_omega + z0 + z1 (Birkhoff kind)
    coeff_quadratic: float
    coeff_quartic: float


def standard_dnls(a: float, energy: float, n: int) -> StandardDnls:
    """Two-step construction: scale, project, remove, project.

    After the scaling x -> sqrt(E) X the chain Hamiltonian reads
    sum_j [(X_j^2+Y_j^2)/2 + a (X_{j+1}-X_j)^2/2 + E X_j^4/4].  In complex
    coordinates the coupling splits into a resonant part Z_0 (kept) and a
    range part (removed by chi_0); one more kernel projection of the
    quartic yields the dNLS with coefficients exactly a/2 and 3E/8.
    """
    if a <= 0 or energy < 0:
        raise ValueError("needs a > 0 and E >= 0")
    h_omega_b = to_complex(SeedPoly.term([(0, 2, 0)], 0.5, n=n)
                           + SeedPoly.term([(0, 0, 2)], 0.5, n=n))
    f0_real = (SeedPoly.term([(1, 2, 0)], a / 2, n=n)
               + SeedPoly.term([(0, 2, 0)], a / 2, n=n)
               + SeedPoly.term([(0, 1, 0), (1, 1, 0)], -a, n=n))
    f0 = to_complex(f0_real)
    z0 = project_kernel(f0)
    chi0 = invert_lie_omega(f0 - z0, 1.0)
    quartic = to_complex(SeedPoly.term([(0, 4, 0)], energy / 4.0, n=n))
    z1 = project_kernel(quartic)

    coeff_quadratic = _proportional_coefficient(z0, _dnls_quad_seed(n))
    coeff_quartic = _proportional_coefficient(z1, _dnls_quartic_seed(n))
    return StandardDnls(a=a, energy=energy, n=n, z0=z0, z1=z1, chi0=chi0,
                        hamiltonian=h_omega_b + z0 + z1,
                        coeff_quadratic=coeff_quadratic,
                        coeff_quartic=coeff_quartic)


def _dnls_quad_seed(n: int) -> SeedPoly:
    """Seed of sum_j |xi_{j+1} - xi_j|^2 = i (xi_1-xi_0)(eta_1-eta_0)."""
    p = SeedPoly.zero(BIRKHOFF, n)
    p = p + SeedPoly.term([(1, 1, 1)], 1j, kind=BIRKHOFF, n=n)
    p = p + SeedPoly.term([(0, 1, 1)], 1j, kind=BIRKHOFF, n=n)
    p = p + SeedPoly.term([(1, 1, 0), (0, 0, 1)], -1j, kind=BIRKHOFF, n=n)
    p = p + SeedPoly.term([(0, 1, 0), (1, 0, 1)], -1j, kind=BIRKHOFF, n=n)
    return p


def _dnls_quartic_seed(n: int) -> SeedPoly:
    """Seed of sum_j |xi_j|^4 = -xi_0^2 eta_0^2."""
    return SeedPoly.term([(0, 2, 2)], -1.0, kind=BIRKHOFF, n=n)


def _proportional_coefficient(f: SeedPoly, shape: SeedPoly) -> float:
    """The scalar c with f = c * shape; raises if not proportional."""
    if shape.is_zero():
        if f.is_zero():
            return 0.0
        raise NormalFormError("shape is zero but polynomial is not")
    ratios = []
    for k, c in shape._terms.items():
        ratios.append(f._terms.get(k, 0.0) / c)
    c0 = ratios[0]
    scale = max(abs(c0), 1e-300)
    for rr in ratios[1:]:
        if abs(rr - c0) > 1e-12 * scale:
            raise NormalFormError("polynomial is not proportional to shape")
    extra = set(f._terms) - set(shape._terms)
    if any(abs(f._terms[k]) > 1e-12 * scale for k in extra):
        raise NormalFormError("polynomial has terms outside the shape")
    if abs(c0.imag) > 1e-12 * scale:
        raise NormalFormError("proportionality constant is not real")
    return float(c0.real)
