"""Sparse polynomial algebra over the canonical chain variables.

Polynomials live on a periodic chain of N sites: every polynomial carries
its chain size, and sites are residues mod N.  Each site carries one
canonically conjugate pair:
(x_l, y_l) in real coordinates, or (xi_l, eta_l) in complex coordinates
where x_l = (xi_l + i eta_l)/sqrt(2), y_l = (i xi_l + eta_l)/sqrt(2).

A polynomial here is usually the *seed* of a cyclically symmetric function;
the cyclic machinery itself lives in :mod:`kgchain.cyclic`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

# Relative coefficient threshold applied after arithmetic: keeps float noise
# from filling in, stays far below every test tolerance.
PRUNE_REL = 1e-15
# Tolerance for declaring a coefficient real when the kind is "real".
REAL_IMAG_TOL = 1e-14

REAL = "real"
BIRKHOFF = "birkhoff"

# A monomial key is a tuple of (site, first-block exponent, second-block
# exponent) entries, sorted by site, with zero-exponent sites absent.
ExpKey = tuple[tuple[int, int, int], ...]


class CoordinateError(ValueError):
    """Coordinate-kind or chain-size mismatch between operands."""


class Monomial:
    """A single monomial: per-site exponent pairs, stored sparsely."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps: Iterable[tuple[int, int, int]]):
        acc: dict[int, list[int]] = {}
        for s, a, b in exps:
            if a < 0 or b < 0:
                raise ValueError("negative exponent")
            if a or b:
                ent = acc.setdefault(int(s), [0, 0])
                ent[0] += int(a)
                ent[1] += int(b)
        key = tuple((s, ab[0], ab[1]) for s, ab in sorted(acc.items()))
        self.exps: ExpKey = key
        self.degree: int = sum(a + b for _, a, b in key)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _, _ in self.exps)

    def sort_key(self):
        return (self.degree, self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial({self.exps!r})"


def _mono_distance(exps: ExpKey, n: int) -> int:
    """Interaction distance: diameter of the support.

    The support lives on a ring, so the diameter is that of the shortest
    covering arc (N minus the largest circular gap).
    """
    if not exps:
        return 0
    sites = sorted({s for s, _, _ in exps})
    if len(sites) == 1:
        return 0
    gaps = [sites[i + 1] - sites[i] for i in range(len(sites) - 1)]
    gaps.append(sites[0] + n - sites[-1])
    return n - max(gaps)


def _mono_arc_start(exps: ExpKey, n: int) -> int:
    """First site of the minimal covering arc (ties: smallest site)."""
    if not exps:
        return 0
    return _arc_start(sorted({s for s, _, _ in exps}), n)


def _arc_start(sites: list[int], n: int) -> int:
    """:func:`_mono_arc_start` on the sorted, distinct, non-empty sites.

    The arc starts after the first largest circular gap, counted from the
    smallest site; which of several equal gaps wins depends on the frame.
    """
    if len(sites) == 1:
        return sites[0]
    best_gap, best_start = -1, sites[0]
    for i in range(len(sites)):
        nxt = sites[(i + 1) % len(sites)]
        gap = (nxt - sites[i]) % n
        if gap == 0:
            gap = n
        if gap > best_gap:
            best_gap, best_start = gap, nxt
    return best_start


def _check_chain_size(n) -> None:
    if not isinstance(n, numbers.Integral) or n < 1:
        raise CoordinateError(f"a seed needs a chain size n >= 1, got {n!r}")


def _ring_key(exps: Iterable[tuple[int, int, int]], n: int) -> ExpKey:
    """Monomial key of ``exps`` with its sites reduced mod n."""
    _check_chain_size(n)
    return Monomial((s % n, a, b) for s, a, b in exps).exps


class SeedPoly:
    """Sparse polynomial over a chain of ``n`` sites, in one coordinate kind.

    Values are immutable by convention: every operation returns a new
    instance.  Coefficients are complex doubles; in the real kind the
    imaginary parts are canonicalised away (tolerance ``REAL_IMAG_TOL``
    relative to the largest coefficient).
    """

    __slots__ = ("kind", "n", "_terms")

    def __init__(self, kind: str, n: int,
                 terms: dict[ExpKey, complex] | None = None,
                 _skip_clean: bool = False):
        if kind not in (REAL, BIRKHOFF):
            raise CoordinateError(f"unknown coordinate kind {kind!r}")
        _check_chain_size(n)
        self.kind = kind
        self.n = n
        raw = terms or {}
        self._terms = raw if _skip_clean else _cleaned(raw, kind)

    # -- constructors --------------------------------------------------
    #
    # The chain size n is required; it defaults to None only so that a
    # missing one raises CoordinateError.  Sites are reduced mod n.

    @classmethod
    def zero(cls, kind: str = REAL, n: int | None = None) -> "SeedPoly":
        return cls(kind, n, {})

    @classmethod
    def term(cls, exps: Iterable[tuple[int, int, int]], coeff: complex,
             kind: str = REAL, n: int | None = None) -> "SeedPoly":
        return cls(kind, n, {_ring_key(exps, n): complex(coeff)})

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Monomial, complex]],
                   kind: str = REAL, n: int | None = None) -> "SeedPoly":
        acc: dict[ExpKey, complex] = {}
        for m, c in pairs:
            key = _ring_key(m.exps, n)
            acc[key] = acc.get(key, 0.0) + complex(c)
        return cls(kind, n, acc)

    # -- basic queries ---------------------------------------------------

    def terms(self) -> list[tuple[Monomial, complex]]:
        """Deterministic (graded-lex) list of (monomial, coefficient)."""
        out = [(Monomial(k), v) for k, v in self._terms.items()]
        out.sort(key=lambda mc: mc[0].sort_key())
        return out

    def coeff(self, exps: Iterable[tuple[int, int, int]]) -> complex:
        return self._terms.get(Monomial(exps).exps, 0.0)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> list[int]:
        return sorted({sum(a + b for _, a, b in k) for k in self._terms})

    def max_degree(self) -> int:
        return max((sum(a + b for _, a, b in k) for k in self._terms),
                   default=0)

    def homogeneous_part(self, degree: int) -> "SeedPoly":
        sub = {k: v for k, v in self._terms.items()
               if sum(a + b for _, a, b in k) == degree}
        return SeedPoly(self.kind, self.n, sub, _skip_clean=True)

    def graded_parts(self) -> dict[int, "SeedPoly"]:
        out: dict[int, dict[ExpKey, complex]] = {}
        for k, v in self._terms.items():
            out.setdefault(sum(a + b for _, a, b in k), {})[k] = v
        return {d: SeedPoly(self.kind, self.n, t, _skip_clean=True)
                for d, t in out.items()}

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "SeedPoly"):
        if self.kind != other.kind:
            raise CoordinateError("coordinate-kind mismatch")
        if self.n != other.n:
            raise CoordinateError("chain-size mismatch")

    def __add__(self, other: "SeedPoly") -> "SeedPoly":
        self._check_compatible(other)
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc.get(k, 0.0) + v
        return SeedPoly(self.kind, self.n, acc)

    def __sub__(self, other: "SeedPoly") -> "SeedPoly":
        self._check_compatible(other)
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc.get(k, 0.0) - v
        return SeedPoly(self.kind, self.n, acc)

    def __neg__(self) -> "SeedPoly":
        return self.scaled(-1.0)

    def scaled(self, c: complex) -> "SeedPoly":
        if c == 0:
            return SeedPoly.zero(self.kind, self.n)
        return SeedPoly(self.kind, self.n,
                        {k: v * c for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        self._check_compatible(other)
        acc: dict[ExpKey, complex] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = _merge_exps(k1, k2)
                acc[k] = acc.get(k, 0.0) + c1 * c2
        return SeedPoly(self.kind, self.n, acc)

    __rmul__ = __mul__

    def partial(self, site: int, block: int) -> "SeedPoly":
        """Derivative with respect to the block-0 or block-1 variable."""
        acc: dict[ExpKey, complex] = {}
        for k, c in self._terms.items():
            for i, (s, a, b) in enumerate(k):
                if s != site:
                    continue
                e = a if block == 0 else b
                if e == 0:
                    break
                ent = (s, a - 1, b) if block == 0 else (s, a, b - 1)
                kk = k[:i] + ((ent,) if ent[1] or ent[2] else ()) + k[i + 1:]
                acc[kk] = acc.get(kk, 0.0) + c * e
                break
        return SeedPoly(self.kind, self.n, acc)

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self._terms.values()), default=0.0)

    def prune(self, rel: float) -> "SeedPoly":
        top = self.max_abs_coeff()
        if top == 0.0:
            return self
        cut = rel * top
        return SeedPoly(self.kind, self.n,
                        {k: v for k, v in self._terms.items()
                         if abs(v) >= cut}, _skip_clean=True)

    def max_coeff_diff(self, other: "SeedPoly") -> float:
        self._check_compatible(other)
        keys = set(self._terms) | set(other._terms)
        return max((abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0))
                    for k in keys), default=0.0)

    def __repr__(self):
        return (f"SeedPoly(kind={self.kind!r}, n={self.n}, "
                f"terms={self.num_terms()})")


def _merge_exps(k1: ExpKey, k2: ExpKey) -> ExpKey:
    acc: dict[int, list[int]] = {}
    for s, a, b in k1:
        acc[s] = [a, b]
    for s, a, b in k2:
        if s in acc:
            acc[s][0] += a
            acc[s][1] += b
        else:
            acc[s] = [a, b]
    return tuple((s, ab[0], ab[1]) for s, ab in sorted(acc.items()))


def _cleaned(raw: dict[ExpKey, complex], kind: str) -> dict[ExpKey, complex]:
    """Drop negligible coefficients; canonicalise real-kind coefficients."""
    top = max((abs(v) for v in raw.values()), default=0.0)
    if top == 0.0:
        return {}
    cut = PRUNE_REL * top
    out: dict[ExpKey, complex] = {}
    if kind == REAL:
        imag_cut = REAL_IMAG_TOL * top
        for k, v in raw.items():
            if abs(v) < cut:
                continue
            if abs(v.imag) > imag_cut:
                raise CoordinateError(
                    f"real-kind coefficient has imaginary part {v.imag:g}")
            out[k] = complex(v.real, 0.0)
    else:
        for k, v in raw.items():
            if abs(v) >= cut:
                out[k] = v
    return out


def sum_polys(polys: Iterable[SeedPoly], kind: str | None = None,
              n: int | None = None) -> SeedPoly:
    """Sum many polynomials in one accumulation pass."""
    acc: dict[ExpKey, complex] = {}
    first = None
    for p in polys:
        if first is None:
            first = p
        else:
            first._check_compatible(p)
        for k, v in p._terms.items():
            acc[k] = acc.get(k, 0.0) + v
    if first is None:
        return SeedPoly.zero(kind or REAL, n)
    return SeedPoly(first.kind, first.n, acc)


# -- Poisson bracket -----------------------------------------------------
#
# Both bracket kernels run on packed words: the two block exponents of
# slot i occupy the 6-bit fields 2i and 2i+1 of a Python int, a 12-bit
# slot per site, so "multiply two monomials and differentiate once in each
# block at site u" is the single integer sum kf + kg - xi_u - eta_u.  Both
# canonical pairings at a common site give that word, with the combined
# factor a1*b2 - b1*a2.
#
# poisson_bracket below numbers the sites its operands use as slots and
# tests every f entry against every g term.  It is the plain reference
# that the seed kernel is tested against.
#
# The seed kernel (kgchain.cyclic.seed_bracket) sums {f, tau^l g} over all
# shifts l on words whose slot i is site i of the ring.  It is driven by
# contacts: an f entry at site u meets a g entry at site s under the one
# shift that moves g by r = u - s, which on words is the rotation
#     rot(w, r) = ((w << 12r) | (w >> 12(n-r))) & (2^(12n) - 1),
# taking every site x to x + r (mod n).  f is never moved, so the words
# stay in f's frame until each is rotated to its left-aligned form.  The
# frame matters: left_align breaks ties between equal largest gaps by it
# (sites {0, 4} at N = 8), so it decides the key an orbit is stored under.

_PACK_BITS = 6
_PACK_MASK = (1 << _PACK_BITS) - 1


def _pack(key: ExpKey, slot_of: dict[int, int]) -> int:
    word = 0
    for s, a, b in key:
        sl = slot_of[s]
        word |= a << (_PACK_BITS * 2 * sl)
        word |= b << (_PACK_BITS * (2 * sl + 1))
    return word


def _unpack(word: int, sites: list[int]) -> ExpKey:
    out = []
    while word:
        low = (word & -word).bit_length() - 1   # lowest nonzero bit
        sl = low // (2 * _PACK_BITS)
        pos = _PACK_BITS * 2 * sl
        a = (word >> pos) & _PACK_MASK
        b = (word >> (pos + _PACK_BITS)) & _PACK_MASK
        word &= ~(((_PACK_MASK << _PACK_BITS) | _PACK_MASK) << pos)
        out.append((sites[sl], a, b))
    return tuple(sorted(out))


def _max_exponent(f: SeedPoly) -> int:
    return max((max(max(a, b) for _, a, b in k) for k in f._terms if k),
               default=0)


def poisson_bracket(f: SeedPoly, g: SeedPoly,
                    prune_rel: float | None = None) -> SeedPoly:
    """Canonical bracket {f, g} = sum_l (df/dx_l dg/dy_l - df/dy_l dg/dx_l).

    The same pairing is used in complex coordinates (xi in the first block,
    eta in the second, {xi_l, eta_l} = 1).  Homogeneous inputs of degrees
    r and s yield a homogeneous result of degree r + s - 2.

    ``prune_rel`` overrides the default coefficient threshold; it also
    enables skipping of term pairs whose product is provably below the
    final threshold (sound because a single pair contributes at most
    r*s*|c_f c_g| to any output coefficient).
    """
    f._check_compatible(g)
    fterms = sorted(f._terms.items(), key=lambda kv: -abs(kv[1]))
    gterms = sorted(g._terms.items(), key=lambda kv: -abs(kv[1]))
    if not fterms or not gterms:
        return SeedPoly.zero(f.kind, f.n)
    if _max_exponent(f) + _max_exponent(g) >= _PACK_MASK:
        raise ValueError("exponent too large for the packed bracket")

    sites = sorted({s for k in f._terms for s, _, _ in k}
                   | {s for k in g._terms for s, _, _ in k})
    slot_of = {s: i for i, s in enumerate(sites)}
    pair_cut = _pair_cut(fterms, gterms, prune_rel)

    fp = [(_pack(k, slot_of), [(slot_of[s], a, b) for s, a, b in k], c)
          for k, c in fterms]
    gp = [(_pack(k, slot_of), k, c) for k, c in gterms]
    acc: dict[int, complex] = {}
    gmax = abs(gterms[0][1])
    for kf, ents1, c1 in fp:
        if pair_cut and abs(c1) * gmax < pair_cut:
            break
        for kg, k2, c2 in gp:
            cc = c1 * c2
            if pair_cut and abs(cc) < pair_cut:
                break
            for sl, a1, b1 in ents1:
                pos = _PACK_BITS * 2 * sl
                ab2 = (kg >> pos) & ((_PACK_MASK << _PACK_BITS)
                                     | _PACK_MASK)
                if not ab2:
                    continue
                a2 = ab2 & _PACK_MASK
                b2 = ab2 >> _PACK_BITS
                factor = a1 * b2 - b1 * a2
                if factor:
                    k = kf + kg - (1 << pos) - (1 << (pos + _PACK_BITS))
                    acc[k] = acc.get(k, 0.0) + cc * factor
    out_terms = {_unpack(w, sites): v for w, v in acc.items()}
    out = SeedPoly(f.kind, f.n, out_terms)
    if prune_rel is not None:
        out = out.prune(prune_rel)
    return out


def _pair_cut(fterms, gterms, prune_rel: float | None) -> float:
    if prune_rel is None:
        return 0.0
    dmax = (max(sum(a + b for _, a, b in k) for k, _ in fterms)
            * max(sum(a + b for _, a, b in k) for k, _ in gterms))
    # Safety margin 1e-6 under the final threshold keeps the total dropped
    # mass negligible relative to the retained coefficients.
    return (prune_rel * abs(fterms[0][1]) * abs(gterms[0][1])
            / max(dmax, 1) * 1e-6)


# -- norms ----------------------------------------------------------------

def poly_norm(f: SeedPoly, radius: float) -> float:
    """Weighted coefficient norm: sum over degrees s of R^s * sum |c|."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    acc = 0.0
    for k, v in f._terms.items():
        acc += radius ** sum(a + b for _, a, b in k) * abs(v)
    return acc


# -- real <-> complex conversion ------------------------------------------

_IPOW = (1.0, 1j, -1.0, -1j)


def _site_to_complex(a: int, b: int) -> dict[tuple[int, int], complex]:
    """Expansion of x^a y^b in (xi, eta), without the 2^(-(a+b)/2) factor."""
    out: dict[tuple[int, int], complex] = {}
    for i in range(a + 1):
        ca = comb(a, i) * _IPOW[(a - i) % 4]
        for j in range(b + 1):
            c = ca * comb(b, j) * _IPOW[j % 4]
            key = (i + j, (a - i) + (b - j))
            out[key] = out.get(key, 0.0) + c
    return out


def _site_to_real(c: int, d: int) -> dict[tuple[int, int], complex]:
    """Expansion of xi^c eta^d in (x, y), without the 2^(-(c+d)/2) factor."""
    out: dict[tuple[int, int], complex] = {}
    for i in range(c + 1):
        ca = comb(c, i) * _IPOW[(-(c - i)) % 4]
        for j in range(d + 1):
            cc = ca * comb(d, j) * _IPOW[(-(d - j)) % 4]
            key = (i + (d - j), (c - i) + j)
            out[key] = out.get(key, 0.0) + cc
    return out


def _convert(f: SeedPoly, site_table, out_kind: str) -> SeedPoly:
    acc: dict[ExpKey, complex] = {}
    for k, c in f._terms.items():
        deg = sum(a + b for _, a, b in k)
        # Exact power of 1/2 for even degree; odd degrees keep a sqrt(2).
        scale = 0.5 ** (deg // 2)
        if deg % 2:
            scale *= 0.7071067811865476
        partial: list[tuple[ExpKey, complex]] = [((), c * scale)]
        for s, a, b in k:
            table = site_table(a, b)
            nxt: list[tuple[ExpKey, complex]] = []
            for key, coeff in partial:
                for (ea, eb), w in table.items():
                    if ea or eb:
                        nxt.append((key + ((s, ea, eb),), coeff * w))
                    else:
                        nxt.append((key, coeff * w))
            partial = nxt
        for key, coeff in partial:
            kk = tuple(sorted(key))
            acc[kk] = acc.get(kk, 0.0) + coeff
    return SeedPoly(out_kind, f.n, acc)


def to_complex(f: SeedPoly) -> SeedPoly:
    """Substitute x = (xi + i eta)/sqrt2, y = (i xi + eta)/sqrt2."""
    if f.kind != REAL:
        raise CoordinateError("to_complex expects a real-kind polynomial")
    return _convert(f, _site_to_complex, BIRKHOFF)


def to_real(f: SeedPoly) -> SeedPoly:
    """Inverse substitution; raises if the result is not real."""
    if f.kind != BIRKHOFF:
        raise CoordinateError("to_real expects a Birkhoff-kind polynomial")
    return _convert(f, _site_to_real, REAL)


def reality_defect(f: SeedPoly) -> float:
    """Deviation from the reality condition b_{j,k} = i^s conj(b_{k,j}).

    Zero (up to roundoff) exactly when the polynomial is the image of a
    real polynomial.  For quadratics the condition reduces to the familiar
    antisymmetric form b_{j,k} = -conj(b_{k,j}).
    """
    if f.kind != BIRKHOFF:
        raise CoordinateError("reality_defect expects Birkhoff kind")
    worst = 0.0
    for k, c in f._terms.items():
        deg = sum(a + b for _, a, b in k)
        swapped = tuple((s, b, a) for s, a, b in k)
        other = f._terms.get(swapped, 0.0)
        worst = max(worst, abs(c - _IPOW[deg % 4] * other.conjugate()))
    return worst


# -- support, alignment, decay --------------------------------------------

@dataclass(frozen=True)
class SupportInfo:
    """Support set, interaction distance and alignment of a polynomial."""
    sites: tuple[int, ...]
    distance: int
    left_aligned: bool


def support_info(f: SeedPoly) -> SupportInfo:
    sites = sorted({s for k in f._terms for s, _, _ in k})
    if not sites:
        return SupportInfo((), 0, True)
    dist = _mono_distance(tuple((s, 1, 0) for s in sites), f.n)
    return SupportInfo(tuple(sites), dist, sites[0] == 0)


def left_align(f: SeedPoly) -> SeedPoly:
    """Shift every monomial so its minimal covering arc starts at site 0.

    A per-monomial shift is a valid reseeding of the same cyclic function.
    """
    acc: dict[ExpKey, complex] = {}
    for k, c in f._terms.items():
        start = _mono_arc_start(k, f.n)
        if start == 0:
            kk = k
        else:
            kk = tuple(sorted(((s - start) % f.n, a, b) for s, a, b in k))
        acc[kk] = acc.get(kk, 0.0) + c
    return SeedPoly(f.kind, f.n, acc, _skip_clean=True)


def decay_decompose(f: SeedPoly) -> dict[int, SeedPoly]:
    """Split into parts of exact interaction distance m, each left aligned.

    The parts are disjoint and re-sum to (a reseeding of) the input.
    """
    g = left_align(f)
    out: dict[int, dict[ExpKey, complex]] = {}
    for k, c in g._terms.items():
        m = _mono_distance(k, g.n)
        part = out.setdefault(m, {})
        part[k] = part.get(k, 0.0) + c
    return {m: SeedPoly(g.kind, g.n, t, _skip_clean=True)
            for m, t in sorted(out.items())}


@dataclass(frozen=True)
class DecayProfile:
    """Envelope ||f^(m)||_1 <= C exp(-sigma m), valid for every listed m."""
    pairs: tuple[tuple[int, float], ...]
    c: float
    sigma: float
    method: str

    def check(self) -> bool:
        return all(v <= self.c * math.exp(-self.sigma * m) * (1 + 1e-12)
                   for m, v in self.pairs)


def envelope_constant(pairs: Iterable[tuple[int, float]],
                      sigma: float) -> float:
    """Tight envelope constant max_m ||f^(m)|| e^{sigma m} at a given rate."""
    best = 0.0
    for m, v in pairs:
        if v == 0.0:
            continue
        best = max(best, v if m == 0 else v * math.exp(sigma * m))
    return best


def fit_decay(parts: dict[int, SeedPoly] | Iterable[tuple[int, float]],
              radius: float = 1.0) -> DecayProfile:
    """Fit a valid decay envelope to per-distance norms.

    The rate is the smallest log-slope from the first nonzero part (so the
    envelope anchored there is tight); the constant is then the tight
    envelope constant at that rate, which makes the profile a valid
    envelope for every m rather than a regression.
    """
    if isinstance(parts, dict):
        pairs = [(m, poly_norm(p, radius)) for m, p in sorted(parts.items())]
    else:
        pairs = sorted(parts)
    nz = [(m, v) for m, v in pairs if v > 0.0]
    if not nz:
        return DecayProfile(tuple(pairs), 0.0, 1.0, "empty")
    m0, v0 = nz[0]
    slopes = [(math.log(v0) - math.log(v)) / (m - m0)
              for m, v in nz[1:] if m > m0]
    sigma = max(min(slopes), 1e-12) if slopes else 1.0
    c = envelope_constant(pairs, sigma)
    return DecayProfile(tuple(pairs), c, sigma, "anchored-min-slope")


# -- JSON serialization ----------------------------------------------------

def seed_to_dict(f: SeedPoly) -> dict:
    terms = []
    for m, c in f.terms():
        terms.append({
            "sites": [s for s, _, _ in m.exps],
            "xexp": [a for _, a, _ in m.exps],
            "yexp": [b for _, _, b in m.exps],
            "re": c.real,
            "im": c.imag,
        })
    return {"kind": f.kind, "n": f.n, "terms": terms}


def seed_from_dict(d: dict) -> SeedPoly:
    acc: dict[ExpKey, complex] = {}
    for t in d["terms"]:
        key = Monomial(zip(t["sites"], t["xexp"], t["yexp"])).exps
        acc[key] = acc.get(key, 0.0) + complex(t["re"], t["im"])
    return SeedPoly(d["kind"], d["n"], acc, _skip_clean=True)
