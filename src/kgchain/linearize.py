"""Circulant machinery and the quadratic normalization.

The coupling matrix A = (1+2a)[I - mu (tau + tau^T)], mu = a/(1+2a), is
circulant and symmetric; its fractional powers are taken on the DFT
spectrum.  The canonical transformation q = A^{1/4} x, p = A^{-1/4} y puts
the quadratic Hamiltonian into the resonant form H_Omega + Z_0 with
h_Omega = (Omega/2)(q_0^2 + p_0^2) and a quadratic seed zeta_0 whose
distance-0 part vanishes because Omega is the average of the square roots
of the eigenvalues (equivalently, the diagonal entry of A^{1/2}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .chainpoly import REAL, SeedPoly, seed_to_dict

# Relative size under which long-range coefficients of the transformed
# quartic are dropped; the exact coefficients decay exponentially, so this
# sits far below every test tolerance.
H1_COEFF_CUTOFF = 1e-14


@dataclass
class Circulant:
    """Symmetric circulant matrix stored as its first row."""
    n: int
    row: np.ndarray
    spectrum: np.ndarray = field(init=False)

    def __post_init__(self):
        self.row = np.asarray(self.row, dtype=float)
        if self.row.shape != (self.n,):
            raise ValueError("first row must have length n")
        if not np.allclose(self.row[1:], self.row[:0:-1], rtol=0, atol=1e-12):
            raise ValueError("row is not symmetric (row[k] != row[n-k])")
        # eigenvalues = DFT of the first row; real for a symmetric row
        self.spectrum = np.fft.fft(self.row).real.copy()

    def dense(self) -> np.ndarray:
        idx = (np.arange(self.n)[None, :] - np.arange(self.n)[:, None]) \
            % self.n
        return self.row[idx]


def build_A(a: float, n: int) -> Circulant:
    """Coupling matrix with first row [1+2a, -a, 0, ..., 0, -a].

    a = 0 is the exact decoupled limit (identity); negative coupling is
    rejected.
    """
    if a < 0:
        raise ValueError("coupling a must be nonnegative")
    row = np.zeros(n)
    row[0] = 1.0 + 2.0 * a
    if n == 1:
        row[0] = 1.0
    elif n == 2:
        row[1] = -2.0 * a
    else:
        row[1] = -a
        row[-1] = -a
    return Circulant(n, row)


def spectrum_formula(a: float, n: int) -> np.ndarray:
    """Closed form lambda_k = 1 + 4 a sin^2(pi k / N)."""
    k = np.arange(n)
    return 1.0 + 4.0 * a * np.sin(np.pi * k / n) ** 2


def circulant_power(c: Circulant, alpha: float) -> Circulant:
    """Fractional power through the spectrum; requires positive eigenvalues."""
    if np.any(c.spectrum <= 0):
        raise ValueError("circulant power needs a positive spectrum")
    lam = c.spectrum ** alpha
    row = np.fft.ifft(lam).real
    return Circulant(c.n, row)


@dataclass
class LinearNF:
    """Result of the quadratic normalization at coupling a, chain size n."""
    n: int
    a: float
    mu: float
    omega: float
    sigma0: float
    sigma1: float
    h_omega: SeedPoly
    zeta0: SeedPoly
    h1: SeedPoly
    b: np.ndarray                 # b_m for m = 1..n//2 (zeta0 coefficients)
    circ: Circulant               # A itself
    row_quarter: np.ndarray       # first row of A^{1/4}
    row_quarter_inv: np.ndarray   # first row of A^{-1/4}
    h1_mmax: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "mu": self.mu,
            "omega": self.omega,
            "sigma0": self.sigma0,
            "sigma1": self.sigma1,
            "b": list(self.b),
            "row_quarter": list(self.row_quarter),
            "row_quarter_inv": list(self.row_quarter_inv),
            "h_omega": seed_to_dict(self.h_omega),
            "zeta0": seed_to_dict(self.zeta0),
            "h1": seed_to_dict(self.h1),
            "h1_mmax": self.h1_mmax,
        }


def _centered_weights(row: np.ndarray, n: int,
                      cutoff: float) -> list[tuple[int, float]]:
    """(site, weight) pairs of a circulant row on centred residues."""
    out = [(0, float(row[0]))]
    lead = abs(row[0])
    for m in range(1, n // 2 + 1):
        w = float(row[m])
        if abs(w) < cutoff * lead:
            continue
        out.append((m, w))
        if 2 * m != n:
            out.append((n - m, w))
    return out


def linear_normalize(a: float, n: int) -> LinearNF:
    """Build the transformed Hamiltonian seeds h_Omega, zeta_0, h_1."""
    if a < 0:
        raise ValueError("coupling a must be nonnegative")
    circ = build_A(a, n)
    mu = a / (1.0 + 2.0 * a)
    sigma0 = -math.log(2.0 * mu) if mu > 0 else math.inf
    sigma1 = sigma0 / 2.0
    half = circulant_power(circ, 0.5)
    quarter = circulant_power(circ, 0.25)
    quarter_inv = circulant_power(circ, -0.25)
    omega = float(np.mean(np.sqrt(circ.spectrum)))

    h_omega = SeedPoly(REAL, n, {((0, 2, 0),): 0.5 * omega,
                                 ((0, 0, 2),): 0.5 * omega})

    # zeta0^(m) = b_m [q_0 (q_m + q_{N-m}) + p_0 (p_m + p_{N-m})], b_m half
    # the off-diagonal entry of A^{1/2}; the distance-0 part is absorbed
    # into H_Omega exactly.  Entries at the DFT roundoff floor are zeroed,
    # otherwise they masquerade as a spurious decay tail.
    row_cut = H1_COEFF_CUTOFF * abs(half.row[0])
    b = np.array([0.5 * half.row[m] if abs(half.row[m]) >= row_cut else 0.0
                  for m in range(1, n // 2 + 1)])
    terms = {}
    for m in range(1, n // 2 + 1):
        bm = float(b[m - 1])
        if bm == 0.0:
            continue
        partners = [m] if 2 * m == n else [m, n - m]
        for mm in partners:
            terms[((0, 1, 0), (mm, 1, 0))] = bm
            terms[((0, 0, 1), (mm, 0, 1))] = bm
    zeta0 = SeedPoly(REAL, n, terms)

    # h1: substitute x_0 = sum_k w_k q_k into x_0^4 / 4; centred weights so
    # the seed keeps its natural window around site 0.
    weights = _centered_weights(quarter_inv.row, n, H1_COEFF_CUTOFF)
    h1_mmax = max((min(s, n - s) for s, _ in weights), default=0)
    acc: dict = {}
    for combo in combinations_with_replacement(range(len(weights)), 4):
        coeff = 0.25 * 24.0
        seen: dict[int, int] = {}
        for i in combo:
            seen[i] = seen.get(i, 0) + 1
        for mult in seen.values():
            coeff /= math.factorial(mult)
        sites: dict[int, int] = {}
        for i, mult in seen.items():
            s, w = weights[i]
            coeff *= w ** mult
            sites[s] = sites.get(s, 0) + mult
        key = tuple((s, e, 0) for s, e in sorted(sites.items()))
        acc[key] = acc.get(key, 0.0) + coeff
    h1 = SeedPoly(REAL, n, acc)

    return LinearNF(n=n, a=a, mu=mu, omega=omega, sigma0=sigma0,
                    sigma1=sigma1, h_omega=h_omega, zeta0=zeta0, h1=h1,
                    b=b, circ=circ, row_quarter=quarter.row,
                    row_quarter_inv=quarter_inv.row, h1_mmax=h1_mmax)


def _apply_rows(nf: LinearNF, state: np.ndarray, row_first: np.ndarray,
                row_second: np.ndarray) -> np.ndarray:
    """The circulant of each row on its block of ``state``, via the DFT."""
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != 2 * nf.n:
        raise ValueError("state length must be 2N")
    return np.concatenate(
        [np.fft.ifft(np.fft.fft(row) * np.fft.fft(block, axis=-1),
                     axis=-1).real
         for row, block in ((row_first, state[..., :nf.n]),
                            (row_second, state[..., nf.n:]))], axis=-1)


def apply_linear(nf: LinearNF, state: np.ndarray) -> np.ndarray:
    """(x, y) -> (q, p) = (A^{1/4} x, A^{-1/4} y), via the DFT."""
    return _apply_rows(nf, state, nf.row_quarter, nf.row_quarter_inv)


def apply_linear_inverse(nf: LinearNF, state: np.ndarray) -> np.ndarray:
    """(q, p) -> (x, y) = (A^{-1/4} q, A^{1/4} p)."""
    return _apply_rows(nf, state, nf.row_quarter_inv, nf.row_quarter)
