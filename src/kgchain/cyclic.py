"""Cyclic-symmetry layer: shifts, realization, seed-level brackets, fields.

A seed f generates the cyclically symmetric function F = sum_{l} tau^l f.
All heavy computations stay at the seed level, where costs and norms do not
grow with the chain size; :func:`realize` expands the full polynomial and is
meant as a small-N ground truth.

Orientation convention, fixed project-wide: tau lowers site indices by one
(the monomial x_j becomes x_{j-1}), which matches the shift x_j -> x_{j+1}
on coordinate values.  Realization sums all N shifts, so either orientation
generates the same cyclic function; the choice is pinned by the
realization-based tests.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .chainpoly import (
    BIRKHOFF,
    REAL,
    CoordinateError,
    ExpKey,
    Monomial,
    SeedPoly,
    poly_norm,
    sum_polys,
    _PACK_BITS,
    _PACK_MASK,
    _arc_start,
    _cleaned,
    _max_exponent,
    _mono_arc_start,
    _mono_distance,
    _pack,
    _pair_cut,
    _unpack,
)

# realize() is intended as a test oracle; beyond this size it refuses.
REALIZE_CAP = 12


def cyclic_shift(f: SeedPoly, l: int) -> SeedPoly:
    """Apply tau^l: site indices decrease by l (mod N)."""
    acc: dict[ExpKey, complex] = {}
    for k, c in f._terms.items():
        kk = tuple(sorted(((s - l) % f.n, a, b) for s, a, b in k))
        acc[kk] = acc.get(kk, 0.0) + c
    return SeedPoly(f.kind, f.n, acc, _skip_clean=True)


def realize(f: SeedPoly, n: int | None = None) -> SeedPoly:
    """Expand the full 2N-variable polynomial sum_{l=0..N-1} tau^l f.

    Ground truth for everything seed-level; capped at ``REALIZE_CAP``
    because the cost and the output size grow with N.  ``n``, if given,
    must be the seed's own chain size.
    """
    if n not in (None, f.n):
        raise CoordinateError(f"realize: seed is on n={f.n}, not n={n}")
    if f.n > REALIZE_CAP:
        raise ValueError(f"realize cap exceeded: n={f.n} > {REALIZE_CAP}")
    return sum_polys(cyclic_shift(f, l) for l in range(f.n))


def seed_bracket(f: SeedPoly, g: SeedPoly, *,
                 prune_rel: float | None = None) -> SeedPoly:
    """A left-aligned seed of {f^+, g^+}: the bracket {f, sum_l tau^l g}.

    Only shifts l that bring a site of tau^l g onto a site of f contribute,
    so the cost is independent of N for short-range seeds; shifts are taken
    mod N, which keeps small-N wrap-around exact.

    The sum over shifts is contact-driven, on the packed keys of
    :mod:`kgchain.chainpoly` with site s in slot s (words).  A contact is a
    site entry (u, a1, b1) of an f-term meeting a site entry (s, a2, b2) of
    a g-term: the shift tau^(s-u) carries site s of g onto site u, so the
    pair adds (a1 b2 - b1 a2) c_f c_g to the word
    kf - xi_u - eta_u + rot(kg, u - s), where rot(w, r) moves every site x
    of w to x + r (mod n).  Each (pair, shift, site) term of the shift sum
    is one contact, so no shift set is built.  f's entries are grouped by
    exponent pair, which fixes the factor for the whole group, and sorted
    by descending |c_f|, so the pair cut ends a group at the first pair
    with |c_f c_g| below it.

    The words stay in f's frame.  left_align breaks ties between equal
    largest gaps by the frame (sites {0, 4} at N = 8), so another frame
    would store some orbits under other keys and move per-key pruning.
    The raw words get the 1e-15 clean and the ``prune_rel`` prune, both
    relative to the largest coefficient; then each is rotated so that its
    covering arc starts at site 0, and each aligned word is unpacked once.
    """
    f._check_compatible(g)
    n = f.n
    fterms = sorted(f._terms.items(), key=lambda kv: -abs(kv[1]))
    gterms = sorted(g._terms.items(), key=lambda kv: -abs(kv[1]))
    if not fterms or not gterms:
        return SeedPoly.zero(f.kind, n)
    if _max_exponent(f) + _max_exponent(g) >= _PACK_MASK:
        raise ValueError("exponent too large for the packed bracket")
    pair_cut = _pair_cut(fterms, gterms, prune_rel)
    sites = list(range(n))          # slot of site s is s
    slot = 2 * _PACK_BITS
    width = slot * n
    word_mask = (1 << width) - 1
    # rot(w, r) = (w | w << width) >> rot_shift[r], masked
    rot_shift = [width - slot * r for r in range(n)]

    by_pair: dict[tuple[int, int], list] = {}
    for k, c in fterms:
        kf = _pack(k, sites)
        for u, a1, b1 in k:
            pos = slot * u
            by_pair.setdefault((a1, b1), []).append(
                (kf - (1 << pos) - (1 << (pos + _PACK_BITS)), u, c))
    groups = [(a1, b1, ents, [-abs(c) for _, _, c in ents])
              for (a1, b1), ents in by_pair.items()]

    acc: dict[int, complex] = {}
    fmax = abs(fterms[0][1])
    for k2, c2 in gterms:
        ag = abs(c2)
        if pair_cut and ag * fmax < pair_cut:
            break
        kg = _pack(k2, sites)
        kg |= kg << width
        rots = [(kg >> sh) & word_mask for sh in rot_shift]
        for s, a2, b2 in k2:
            for a1, b1, ents, negmag in groups:
                factor = a1 * b2 - b1 * a2
                if not factor:
                    continue
                if pair_cut:
                    ents = ents[:bisect_right(negmag, -pair_cut / ag)]
                cg = c2 * factor
                for kfm, u, c1 in ents:
                    w = kfm + rots[u - s]
                    acc[w] = acc.get(w, 0.0) + c1 * cg

    kept = _cleaned(acc, f.kind)
    if prune_rel is not None and kept:
        cut = prune_rel * max(abs(v) for v in kept.values())
        kept = {w: v for w, v in kept.items() if abs(v) >= cut}

    # left alignment: rotate each word by minus its arc start
    ones = sum(1 << (slot * x) for x in sites)
    low = _PACK_MASK * ones
    start_of: dict[int, int] = {}
    aligned: dict[int, complex] = {}
    for w, v in kept.items():
        # bit slot*x of occ is set iff site x carries an exponent
        occ = (((w | (w >> _PACK_BITS)) & low) + low) >> _PACK_BITS & ones
        start = start_of.get(occ)
        if start is None:
            occupied = [x for x in sites if occ >> (slot * x) & 1]
            start = _arc_start(occupied, n) if occupied else 0
            start_of[occ] = start
        if start:
            w = ((w << (width - slot * start)) | (w >> (slot * start))) \
                & word_mask
        aligned[w] = aligned.get(w, 0.0) + v
    return SeedPoly(f.kind, n, {_unpack(w, sites): v
                                 for w, v in aligned.items()},
                    _skip_clean=True)


def symmetric_align(f: SeedPoly) -> SeedPoly:
    """Reseed so every monomial sits in a window centred on site 0.

    Site residues above N/2 are read as negative sites; a monomial whose
    covering arc misses site 0 is shifted so the arc ends there, and a
    monomial supported entirely on non-negative sites is mirrored to the
    non-positive side (the canonical representative).  The realization is
    unchanged; the per-monomial window half-width max |site| is the
    symmetric interaction distance, which is the sharper measure used for
    the centred decay decomposition.
    """
    n = f.n
    half = n // 2
    acc: dict[ExpKey, complex] = {}
    for k, c in f._terms.items():
        start = _mono_arc_start(k, n)
        dist = _mono_distance(k, n)
        # Shift so the arc contains site 0 whenever it does not already.
        sites = [s for s, _, _ in k]
        arc = {(start + d) % n for d in range(dist + 1)}
        if 0 not in arc:
            shift = (start + dist) % n
            k = tuple(sorted(((s - shift) % n, a, b) for s, a, b in k))
            sites = [s for s, _, _ in k]
        centred = [s if s <= half else s - n for s in sites]
        if centred and min(centred) >= 0 and max(centred) > 0:
            # strictly right-sided: mirror so the far site lands on 0
            shift = max(centred)
            k = tuple(sorted(((s - shift) % n, a, b) for s, a, b in k))
        acc[k] = acc.get(k, 0.0) + c
    return SeedPoly(f.kind, n, acc, _skip_clean=True)


def symmetric_distance(m: Monomial | ExpKey, n: int) -> int:
    """Window half-width max |site| with sites read as centred residues."""
    exps = m.exps if isinstance(m, Monomial) else m
    half = n // 2
    return max((s if s <= half else n - s for s, _, _ in exps), default=0)


def symmetric_parts(f: SeedPoly) -> dict[int, SeedPoly]:
    """Centred decay decomposition: parts indexed by window half-width."""
    g = symmetric_align(f)
    out: dict[int, dict[ExpKey, complex]] = {}
    for k, c in g._terms.items():
        m = symmetric_distance(k, g.n)
        part = out.setdefault(m, {})
        part[k] = part.get(k, 0.0) + c
    return {m: SeedPoly(g.kind, g.n, t, _skip_clean=True)
            for m, t in sorted(out.items())}


# -- Hamiltonian vector fields ---------------------------------------------

@dataclass(frozen=True)
class FieldSeed:
    """Seed pair of the Hamiltonian field of a cyclic function F = f^+.

    ``xq`` is dF/dy_0 (the first-block component at site 0) and ``xp`` is
    -dF/dx_0; the full field follows by shifts, components at site j being
    tau^{-j} applied to the site-0 pair.
    """
    xq: SeedPoly
    xp: SeedPoly


def field_seed(f: SeedPoly) -> FieldSeed:
    sites = {s for k in f._terms for s, _, _ in k}
    xq = sum_polys((cyclic_shift(f.partial(l, 1), l) for l in sites),
                   kind=f.kind, n=f.n)
    xp = sum_polys((cyclic_shift(f.partial(l, 0), l) for l in sites),
                   kind=f.kind, n=f.n).scaled(-1.0)
    return FieldSeed(xq, xp)


def field_norm(fs: FieldSeed, radius: float) -> float:
    """|||X_F|||_R = ||X_1||_R + ||X_{N+1}||_R."""
    return poly_norm(fs.xq, radius) + poly_norm(fs.xp, radius)


def field_norm_decay_bound(c_f: float, sigma: float, degree: int,
                           radius: float) -> float:
    """Bound 4 r R^{r-1} C_f / (1 - e^{-sigma})^2 for a degree-r function."""
    return 4 * degree * radius ** (degree - 1) * c_f \
        / (1.0 - math.exp(-sigma)) ** 2


# -- fast evaluation of realized functions and fields -----------------------

class RealizedEvaluator:
    """Evaluate the N shifts of a real seed f at phase-space states.

    States are arrays (2N,): first N entries the x/q block, last N the y/p
    block.  :meth:`gather` gives one value per shift: with the default
    ``shift_sign=-1`` entry l is (tau^l f)(z), and calling the evaluator
    returns their sum, the realized value F(z) = f^+(z); with
    ``shift_sign=+1`` entry j is (tau^{-j} f)(z), the site-j component of a
    field whose site-0 component is f (see :class:`FieldEvaluator`).

    Construction turns every (slot, term, shift) into one flat index into
    the per-site table T[a, b, s] = x_s**a * y_s**b, a, b = 0..e for the
    largest exponent e.  :meth:`table` builds T, (e+1)^2 N products of
    2 (e+1) N powers; :meth:`gather` gathers it once (width * terms * N
    entries), multiplies along the width axis and contracts with the
    coefficients.  Raising each gathered coordinate instead costs
    width * terms * N powers, on libm's slow path for the negative bases
    that about half of the coordinates are.  Each gathered factor is the same float64 product x_s**a * y_s**b,
    and the products and sums run in the same order, so the values are
    bit for bit those of that direct form.  ``top`` widens T to at least
    that exponent, so that evaluators of several seeds can share one table.
    """

    def __init__(self, f: SeedPoly, *, shift_sign: int = -1, top: int = 0):
        if f.kind != REAL:
            raise CoordinateError("evaluation needs a real-kind polynomial")
        self.n = n = f.n
        terms = f.terms()
        width = max((len(m.exps) for m, _ in terms), default=1)
        t = len(terms)
        self.coeff = np.zeros(t)
        sites = np.zeros((t, width), dtype=np.int64)
        aexp = np.zeros((t, width), dtype=np.int64)
        bexp = np.zeros((t, width), dtype=np.int64)
        for i, (m, c) in enumerate(terms):
            self.coeff[i] = c.real
            for j, (s, a, b) in enumerate(m.exps):
                sites[i, j] = s
                aexp[i, j] = a
                bexp[i, j] = b
        # padded slots point at T[0, 0, s] = 1
        self.powers = np.arange(max(_max_exponent(f), top) + 1)[:, None]
        e1 = self.powers.shape[0]
        shifted = (sites[:, :, None] + shift_sign * np.arange(n)) % n
        index = (aexp * e1 + bexp)[:, :, None] * n + shifted
        # slot-major, so the product runs over contiguous (terms, N) slabs
        self.index = np.ascontiguousarray(index.transpose(1, 0, 2))

    def table(self, state: np.ndarray) -> np.ndarray:
        """The per-site table T of one state."""
        n = self.n
        pw = state ** self.powers              # x**k, then y**k
        return pw[:, None, :n] * pw[None, :, n:]

    def gather(self, table: np.ndarray) -> np.ndarray:
        """Values of the N shifted seeds from a table T, shape (N,)."""
        return self.coeff @ table.take(self.index).prod(axis=0)

    def __call__(self, state: np.ndarray) -> float:
        return float(self.gather(self.table(state)).sum())


class FieldEvaluator:
    """Evaluate the Hamiltonian field X_F at states via the field seeds.

    Each call builds one per-site table and makes two
    :class:`RealizedEvaluator` gathers from it, one per block.
    """

    def __init__(self, f: SeedPoly):
        fs = field_seed(f)
        top = max(_max_exponent(fs.xq), _max_exponent(fs.xp))
        self._eq = RealizedEvaluator(fs.xq, shift_sign=1, top=top)
        self._ep = RealizedEvaluator(fs.xp, shift_sign=1, top=top)

    def __call__(self, state: np.ndarray) -> np.ndarray:
        """Full field (dx/dt, dy/dt), shape (2N,)."""
        table = self._eq.table(state)
        return np.concatenate([self._eq.gather(table),
                               self._ep.gather(table)])
