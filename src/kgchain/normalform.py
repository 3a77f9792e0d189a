"""Lie-transform engine: homological solver, normal-form recursion, GdNLS.

Grading: grade s holds homogeneous polynomials of degree 2s+2, so the
quadratic part H_0 = H_Omega + Z_0 sits at grade 0 and the quartic h_1 at
grade 1.  The Lie transform of a generating sequence chi_1..chi_r is

    T = sum_s E_s,   E_0 = Id,   E_s = sum_j (j/s) L_{chi_j} E_{s-j}.

Sign convention (fixed project-wide, pinned by the round-trip tests
T(H_Omega + Z + remainder) = H): the homological equation solved at each
grade is

    L_{H_0} chi_s = Z_s - Psi_s,      Z_s = Pi_kernel(Psi_s),

with Psi_1 = h_1 and, for s >= 2,

    Psi_s = -[ (s-1)/s L_{chi_{s-1}} h_1 + sum_{l<s} (l/s) E_{s-l} Z_l ].

With this arrangement the grade-s component of T(normal form) reproduces
the original Hamiltonian, and the decoupled limit gives the classical
positive kernel average (Z_1 = (3/32)(q^2+p^2)^2 for the unit oscillator).

The remainder head continues this recursion past the order r: with
chi_s = 0 and Z_s := Psi_s for s > r the equation holds trivially, so
h^(r)_s = Psi_s, in which only chi_1..chi_r enter, and T_r(J_r) up to
degree 2r+4 is H - Psi_{r+1}, with no Lie transform applied to J_r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chainpoly import (
    BIRKHOFF,
    REAL,
    CoordinateError,
    DecayProfile,
    SeedPoly,
    fit_decay,
    norm_pairs,
    poly_norm,
    seed_to_dict,
    sum_polys,
    to_complex,
    _check_cut,
    _check_kind,
    _imbalance_sectors,
    _imbalances,
    _magnitudes,
    _product,
    _sequential_sum,
    _to_real_sectors,
)
from .cyclic import seed_bracket
from .linearize import LinearNF


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
# A pruned Neumann series drops every word below NEUMANN_CUT * prune_rel
# times the largest coefficient of its first term L_Omega^{-1} g.
NEUMANN_CUT = 1e-3
# Kernel mass of an invert_lie_omega input, relative to its ||.||_1, that is
# dropped as float noise; a larger one is an error.
KERNEL_LEAK_TOL = 1e-12


# -- the diagonal operator L_Omega, in the Birkhoff coordinates only --------

def _range_terms(f: SeedPoly, omega: float, name: str):
    """f's rows and values, the mask of its range terms (d = |k| - |j|
    != 0) and, for each range term, i Omega d as Python computes
    1j * omega * d."""
    _check_kind(f, BIRKHOFF, name)
    rows, vals = f._words
    d = _imbalances(rows)
    keep = d != 0
    ds, at = np.unique(d[keep], return_inverse=True)
    den = np.array([1j * omega * dv for dv in ds.tolist()], complex)
    return rows, vals, keep, den[at]


def lie_omega(f: SeedPoly, omega: float) -> SeedPoly:
    """Diagonal action L_Omega xi^j eta^k = i Omega (|k|-|j|) xi^j eta^k;
    each value is the Python product c * (1j * omega * d)."""
    rows, vals, keep, den = _range_terms(f, omega, "lie_omega")
    return SeedPoly._of_words(BIRKHOFF, f.n, rows[keep],
                              _product(vals[keep], den))


def project_kernel(f: SeedPoly) -> SeedPoly:
    _check_kind(f, BIRKHOFF, "project_kernel")
    return f._subset(_imbalances(f._words[0]) == 0)


def project_range(f: SeedPoly) -> SeedPoly:
    _check_kind(f, BIRKHOFF, "project_range")
    return f._subset(_imbalances(f._words[0]) != 0)


def invert_lie_omega(g: SeedPoly, omega: float) -> SeedPoly:
    """Unique inverse on the range: divide by i Omega (|k|-|j|).

    A kernel component above ``KERNEL_LEAK_TOL`` (relative to ||g||_1) is
    an error; a smaller one is float noise and is dropped.  It runs on
    g's lane words and builds no keys.  Each quotient has the bits of the
    complex division c / (1j * omega * d): Smith's rule, as Python divides
    by a denominator whose imaginary part is the larger.
    """
    rows, vals, keep, den = _range_terms(g, omega, "invert_lie_omega")
    mag = _magnitudes(vals)
    total = _sequential_sum(mag)    # ||g||_1, as poly_norm(g, 1.0) sums it
    kernel_mass = _sequential_sum(mag[~keep])
    if kernel_mass > KERNEL_LEAK_TOL * max(total, 1e-300):
        raise KernelLeakageError(
            f"input has kernel component of relative size "
            f"{kernel_mass / max(total, 1e-300):.3e}")
    c = vals[keep]
    ratio = den.real / den.imag
    denom = den.real * ratio + den.imag
    out = np.empty(len(c), complex)
    out.real = (c.real * ratio + c.imag) / denom
    out.imag = (c.imag * ratio - c.real) / denom
    return SeedPoly._of_words(BIRKHOFF, g.n, rows[keep], out)


# -- homological equation ----------------------------------------------------

def solve_homological(psi: SeedPoly, zeta0: SeedPoly, omega: float,
                      tol: float = 1e-12, prune_rel: float | None = None,
                      ) -> tuple[SeedPoly, SeedPoly]:
    """Solve L_{H_0} chi + zeta = psi with zeta in the kernel of L_Omega.

    psi, zeta0 and the returned chi and zeta are real kind; the equation
    is split and inverted in the Birkhoff coordinates, inside the solver.
    The inverse of L_{H_0} = L_Omega (Id + K), K = L_Omega^{-1} L_{Z_0},
    is applied through the Neumann series sum_l (-K)^l L_Omega^{-1},
    iterated until the next term's seed norm drops below tol * ||psi||_1
    (Birkhoff frame).  Term growth over three consecutive iterations, or
    no settling within ``NEUMANN_MAX_TERMS`` terms, raises
    :class:`NeumannDivergenceError` (the operator-norm smallness that
    guarantees convergence no longer holds).

    The series runs on the imbalance sector d = |k| - |j| > 0 alone, and
    chi is the real polynomial whose image is that half plus its mirror
    (:func:`~kgchain.chainpoly._to_real_sectors`).  This is exact: Z_0
    lies in the kernel of L_Omega (d = 0), so L_Omega and L_{Z_0} keep d,
    and so does every term of the series; the reality map takes sector d
    onto -d and commutes with both operators, so the d < 0 half of the
    solution of a real psi is the mirror of its d > 0 half.  A term's norm
    is twice its half's.  A psi or zeta0 that is not real kind, or a zeta0
    whose image leaves the kernel, raises ``CoordinateError``.

    With ``prune_rel`` set, every term's bracket drops its words below
    one absolute floor, ``NEUMANN_CUT * prune_rel`` times the largest
    coefficient of the first term, besides its own relative cut: term l
    is about (mu/Omega)^l smaller than the first, so a cut relative to
    each term alone would keep a full-width tail at every l.  Both cuts
    read the largest |c|, which the mirror keeps, so the half is cut as
    the whole would be.

    Everything stays on lane words, from psi's image to the expansion of
    the summed half: the terms are negated, inverted, normed and summed in
    term order there, with the rounding of the same steps on key dicts,
    and no key is built.
    """
    _check_cut(prune_rel)
    for name, f in (("psi", psi), ("zeta0", zeta0)):
        _check_kind(f, REAL, f"solve_homological ({name})")
    zeta0_b = to_complex(zeta0)
    if not project_range(zeta0_b).is_zero():
        raise CoordinateError("solve_homological expects zeta0 in the "
                              "kernel of L_Omega")

    psi_b = to_complex(psi)
    kernel, half = _imbalance_sectors(psi_b)
    empty = SeedPoly.zero(BIRKHOFF, psi.n)
    zeta = _to_real_sectors(kernel, empty)
    scale = poly_norm(psi_b, 1.0)
    if half.is_zero():
        return SeedPoly.zero(REAL, psi.n), zeta

    term = invert_lie_omega(half, omega)
    floor = NEUMANN_CUT * (prune_rel or 0.0) * term.max_abs_coeff()
    terms = [term]
    prev_norm = 2.0 * poly_norm(term, 1.0)
    growth = 0
    for _ in range(NEUMANN_MAX_TERMS):
        if prev_norm <= tol * scale:
            break
        bracket = seed_bracket(zeta0_b, term, prune_rel=prune_rel,
                               floor=floor)
        term = -invert_lie_omega(bracket, omega)
        terms.append(term)
        norm = 2.0 * poly_norm(term, 1.0)
        growth = growth + 1 if norm > prev_norm else 0
        if growth >= 3:
            raise NeumannDivergenceError(0)
        prev_norm = norm
    else:
        raise NeumannDivergenceError(0, "Neumann series did not settle")
    return _to_real_sectors(empty, sum_polys(terms)), zeta


def homological_residual(chi: SeedPoly, zeta: SeedPoly, psi: SeedPoly,
                         zeta0: SeedPoly, omega: float) -> float:
    """||L_{H_0} chi + zeta - psi||_1 in the Birkhoff frame, of the
    real-kind operands of :func:`solve_homological`."""
    chi_b = to_complex(chi)
    lh0 = lie_omega(chi_b, omega) + seed_bracket(to_complex(zeta0), chi_b)
    return poly_norm(lh0 + to_complex(zeta - psi), 1.0)


# -- result containers -------------------------------------------------------

@dataclass
class GeneratingSequence:
    """Seeds chi_1..chi_r of the Lie transform."""
    chis: list[SeedPoly]


@dataclass
class NormalFormResult:
    lnf: LinearNF
    seq: GeneratingSequence
    zetas: list[SeedPoly]          # zeta_1..zeta_r, real kind
    remainder: list[SeedPoly]      # seeds h^(r)_s for s = r+1.., real kind
    soft: bool
    tol: float
    # internals reused by remainder/bound computations (real kind); the
    # construction's engine holds the cut (prune) and keeps its E_{s-l} Z_l
    # memo for the remainder and T_r(J_r)
    _h1: SeedPoly | None = None
    _engine: _LieEngine | None = field(default=None, repr=False, compare=False)
    # built on first use: transformed truncations, observable evaluators
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.seq.chis)

    def transformed_truncation(self, r: int) -> SeedPoly:
        """Seed of T_r(J_r), J_r = H_Omega + Z_0 + Z_1 + ... + Z_r, up to
        degree 2r+4: the truncation J_r read in the normal-form coordinates
        of order r, as a function of the linear coordinates.

        T_r(J_r) = H - T_r(R_r), and R_r starts with h^(r)_{r+1} = Psi_{r+1}
        at degree 2r+4, so the seed is exactly H_Omega + Z_0 + h_1 - Psi_{r+1}
        and the cap drops O(R^{2r+6}).  Psi_{r+1} reads chi_1..chi_r, Z_1..Z_r
        and the construction's h_1, on its engine's memo.  Built on first use
        and memoised; :func:`normal_form` does not build it.
        """
        _check_int("r", r, 1, self.order)
        key = ("T", r)
        if key not in self._memo:
            psi = _psi(self._engine, self._h1, self.zetas, r + 1)
            self._memo[key] = sum_polys([self.lnf.h_omega, self.lnf.zeta0,
                                         self._h1, -psi])
        return self._memo[key]

    def hamiltonian_seed(self) -> SeedPoly:
        """Seed of the linearly transformed Hamiltonian H."""
        h1 = -self.lnf.h1 if self.soft else self.lnf.h1
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
    """Seed-level E_s applications for one generating sequence.

    E_s f is memoised under (s, root), which collapses the shared
    sub-brackets of the triangular recursion.  Callers name the root that
    f stands for, and must use one root per polynomial.
    """

    def __init__(self, chis: list[SeedPoly], prune_rel: float | None):
        _check_cut(prune_rel)
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


def _psi(engine: _LieEngine, h1: SeedPoly, zetas: list[SeedPoly],
         s: int) -> SeedPoly:
    """Psi_s from Z_1..Z_{s-1}, Z_l under memo root l, cut at the
    engine's ``prune``; past the order chi_{s-1} = 0, so L_{chi_{s-1}} h_1
    drops out."""
    if s == 1:
        return h1
    # the weights carry Psi_s's minus sign: negation is exact
    parts = []
    if s - 1 <= len(engine.chis):
        parts.append(engine.lie(s - 1, h1).scaled(-(s - 1) / s))
    for l in range(1, s):
        parts.append(engine.e_apply(s - l, zetas[l - 1], l).scaled(-l / s))
    return sum_polys(parts).prune(engine.prune)


def _check_int(name: str, value, low: int, high: float = np.inf) -> None:
    if not isinstance(value, int) or not low <= value <= high:
        span = f">= {low}" if high == np.inf else f"in {low}..{high}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


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
    _check_int("order", order, 1)
    if s_max is not None:
        _check_int("s_max", s_max, order + 1)
    omega = lnf.omega
    h1_real = -lnf.h1 if soft else lnf.h1
    h1_real = h1_real.prune(prune_rel)      # raises on a bad prune_rel

    # The recursion runs in real coordinates (far fewer terms); only the
    # kernel/range splitting and the diagonal inversion go through the
    # complex coordinates, inside the solver.
    chis: list[SeedPoly] = []
    zetas: list[SeedPoly] = []
    engine = _LieEngine(chis, prune_rel)

    for s in range(1, order + 1):
        psi = _psi(engine, h1_real, zetas, s)
        try:
            chi, zeta = solve_homological(psi, lnf.zeta0, omega, tol=tol,
                                          prune_rel=prune_rel)
        except NeumannDivergenceError as exc:
            raise NeumannDivergenceError(s) from exc
        # L_{H0} chi_s = Z_s - Psi_s
        chis.append((-chi).prune(prune_rel))
        zetas.append(zeta.prune(prune_rel))

    res = NormalFormResult(
        lnf=lnf, seq=GeneratingSequence(chis), zetas=zetas,
        remainder=[], soft=soft, tol=tol, _h1=h1_real, _engine=engine)
    if s_max is not None:
        res.remainder = remainder_head(res, s_max)
    return res


def remainder_head(res: NormalFormResult, s_max: int) -> list[SeedPoly]:
    """Seeds h^(r)_s = Psi_s of the remainder for s = r+1..s_max.

    Continues the construction's recursion past the order r with
    chi_s = 0 and Z_s := Psi_s, on the construction's engine, so the
    E_{s-l} Z_l images it already holds are not bracketed again.
    """
    r = res.order
    _check_int("s_max", s_max, r + 1)
    zetas = list(res.zetas)
    for s in range(r + 1, s_max + 1):
        zetas.append(_psi(res._engine, res._h1, zetas, s))
    return zetas[r:]


def lie_transform_apply(seq: GeneratingSequence | NormalFormResult,
                        f: SeedPoly, degree_cap: int,
                        prune_rel: float | None = None) -> SeedPoly:
    """Graded application of T up to degree_cap: the reference that the
    round-trip tests and the ``roundtrip`` benchmark use.

    Each E_s image of the degree-d0 part of ``f`` is homogeneous of degree
    d0 + 2s, so the images with d0 + 2s <= ``degree_cap`` are exactly the
    terms up to that degree.  ``f`` is in the coordinate kind of the
    generating sequence (real); another kind raises ``CoordinateError`` at
    the first bracket.
    """
    chis = seq.seq.chis if isinstance(seq, NormalFormResult) else seq.chis
    engine = _LieEngine(chis, prune_rel)
    parts = [engine.e_apply(s, piece, d0)
             for d0, piece in sorted(f.graded_parts().items())
             for s in range((degree_cap - d0) // 2 + 1)]
    return sum_polys(parts, kind=f.kind, n=f.n)


# -- GdNLS extraction ---------------------------------------------------------

@dataclass
class GdnlsModel:
    """First-order normal form K = H_Omega + Z_0 + Z_1 as a GdNLS chain."""
    zeta1_profile: DecayProfile         # norms per covering-arc length
    zeta1: SeedPoly
    reference: dict
    lnf: LinearNF = field(repr=False)   # its chain and couplings b_m

    def to_dict(self) -> dict:
        return {
            "n": self.lnf.n, "a": self.lnf.a, "mu": self.lnf.mu,
            "omega": self.lnf.omega, "b": list(self.lnf.b),
            "zeta1_part_norms": {str(m): v
                                 for m, v in self.zeta1_profile.pairs},
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
    lnf = res.lnf
    zeta1 = res.zetas[0]
    profile = fit_decay(norm_pairs(zeta1))
    reference = {
        "dnls_coupling": lnf.mu / 2.0,
        "dnls_onsite_display": 1.5,
        "dnls_onsite_kernel_average": 3.0 / 32.0,
        "scaled_birkhoff_quadratic": lnf.a / 2.0,
    }
    return GdnlsModel(zeta1_profile=profile, zeta1=zeta1,
                      reference=reference, lnf=lnf)


# -- the standard two-step dNLS pipeline -------------------------------------

@dataclass
class StandardDnls:
    """Outcome of the two-step resonant normalization of the scaled chain."""
    z0: SeedPoly          # resonant quadratic a/2 sum |xi_{j+1}-xi_j|^2
    z1: SeedPoly          # resonant quartic 3E/8 sum |xi_j|^4
    chi0: SeedPoly        # removes the non-resonant quadratic part
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
    return StandardDnls(z0=z0, z1=z1, chi0=chi0,
                        coeff_quadratic=coeff_quadratic,
                        coeff_quartic=coeff_quartic)


def _dnls_quad_seed(n: int) -> SeedPoly:
    """Seed of sum_j |xi_{j+1} - xi_j|^2 = i (xi_1-xi_0)(eta_1-eta_0)."""
    # one sum, not a dict: at N = 1 the four terms share one key and cancel
    terms = (([(1, 1, 1)], 1j), ([(0, 1, 1)], 1j),
             ([(1, 1, 0), (0, 0, 1)], -1j), ([(0, 1, 0), (1, 0, 1)], -1j))
    return sum_polys(SeedPoly.term(exps, c, kind=BIRKHOFF, n=n)
                     for exps, c in terms)


def _dnls_quartic_seed(n: int) -> SeedPoly:
    """Seed of sum_j |xi_j|^4 = -xi_0^2 eta_0^2."""
    return SeedPoly.term([(0, 2, 2)], -1.0, kind=BIRKHOFF, n=n)


def _proportional_coefficient(f: SeedPoly, shape: SeedPoly) -> float:
    """The real scalar c0 with f = c0 * shape, read off shape's first term
    (0 for a zero shape); raises unless f - c0 * shape and the imaginary
    part of c0 are below 1e-12 |c0|."""
    key, c = next(iter(shape._terms.items()), (None, 1.0))
    c0 = f._terms.get(key, 0.0) / c
    tol = 1e-12 * max(abs(c0), 1e-300)
    if (f - shape.scaled(c0)).max_abs_coeff() > tol or abs(c0.imag) > tol:
        raise NormalFormError("polynomial is not a real multiple of shape")
    return float(c0.real)
