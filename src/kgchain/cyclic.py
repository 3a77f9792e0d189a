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
from dataclasses import dataclass

import numpy as np

from .chainpoly import (
    REAL,
    CoordinateError,
    ExpKey,
    SeedPoly,
    left_align,
    poly_norm,
    sum_polys,
    _arc,
    _cleaned,
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


# -- packed words ------------------------------------------------------------
#
# The seed kernel runs on packed words: the two block exponents of site s
# occupy the 6-bit fields 2s and 2s+1 of a Python int, a 12-bit slot per
# site of the ring, so "multiply two monomials and differentiate once in
# each block at site u" is the single integer sum kf + kg - xi_u - eta_u.
# Both canonical pairings at a common site give that word, with the
# combined factor a1*b2 - b1*a2.  A shift of the ring is the rotation
#     rot(w, r) = ((w << 12r) | (w >> 12(n-r))) & (2^(12n) - 1),
# which takes every site x to x + r (mod n).

_PACK_BITS = 6
_PACK_MASK = (1 << _PACK_BITS) - 1
_SLOT_BITS = 2 * _PACK_BITS
_SLOT_MASK = (1 << _SLOT_BITS) - 1


def _pack(key: ExpKey) -> int:
    word = 0
    for s, a, b in key:
        word |= (a | b << _PACK_BITS) << (_SLOT_BITS * s)
    return word


def _unpack(word: int) -> ExpKey:
    out = []
    while word:
        s = ((word & -word).bit_length() - 1) // _SLOT_BITS  # lowest site
        pos = _SLOT_BITS * s
        out.append((s, (word >> pos) & _PACK_MASK,
                    (word >> (pos + _PACK_BITS)) & _PACK_MASK))
        word &= ~(_SLOT_MASK << pos)
    return tuple(out)


def _max_exponent(f: SeedPoly) -> int:
    return max((max(max(a, b) for _, a, b in k) for k in f._terms if k),
               default=0)


def seed_bracket(f: SeedPoly, g: SeedPoly, *,
                 prune_rel: float | None = None,
                 floor: float = 0.0) -> SeedPoly:
    """A left-aligned seed of {f^+, g^+}: the bracket {f, sum_l tau^l g}.

    Only shifts l that bring a site of tau^l g onto a site of f contribute,
    so the cost is independent of N for short-range seeds; shifts are taken
    mod N, which keeps small-N wrap-around exact.

    The sum over shifts is contact-driven, on the packed words above.  A
    contact is a site entry (u, a1, b1) of an f-term meeting a site entry
    (s, a2, b2) of a g-term: the shift tau^(s-u) carries site s of g onto
    site u, so the pair adds (a1 b2 - b1 a2) c_f c_g to the word
    kf - xi_u - eta_u + rot(kg, u - s), where rot(w, r) moves every site x
    of w to x + r (mod n).  Each (pair, shift, site) term of the shift sum
    is one contact, so no shift set is built.  f's entries are grouped by
    exponent pair, which fixes the factor for the whole group.

    Every shift of g is summed, so the frame each key of g is stored in
    cannot change the result: g's keys are first merged per orbit by
    :func:`kgchain.chainpoly.left_align`, which moves only the order of
    summation, so the cost follows the orbits of g, not its keys.  f is not
    merged: the words stay in f's frame, and f's frame fixes the output
    keys.  The covering-arc rule breaks ties between equal largest gaps by
    the frame (sites {0, 4} at N = 8), so another frame of f would store
    some orbits under other keys and move per-key pruning.

    The kernel cuts the raw words by :func:`kgchain.chainpoly._cleaned`,
    which makes every coefficient cut: it keeps |c| >= max(max(1e-15,
    ``prune_rel``) * largest |c|, ``floor``), so a ``prune_rel`` below
    1e-15 (or None) acts as the 1e-15 clean, and it raises ``ValueError``
    unless ``prune_rel`` is None or in (0, 1) and the absolute ``floor`` is
    finite and >= 0.  Then each kept word is rotated so that its covering
    arc starts at site 0, and each aligned word is unpacked once.  Kept
    words that align onto one key merge and may cancel, so the output gets
    the 1e-15 clean of every SeedPoly.
    """
    f._check_compatible(g)
    g = left_align(g)
    n = f.n
    if _max_exponent(f) + _max_exponent(g) >= _PACK_MASK:
        raise ValueError("exponent too large for the packed bracket")
    width = _SLOT_BITS * n
    word_mask = (1 << width) - 1
    # rot(w, r) = (w | w << width) >> rot_shift[r], masked
    rot_shift = [width - _SLOT_BITS * r for r in range(n)]

    by_pair: dict[tuple[int, int], list] = {}
    for k, c in f._terms.items():
        kf = _pack(k)
        for u, a1, b1 in k:
            pos = _SLOT_BITS * u
            by_pair.setdefault((a1, b1), []).append(
                (kf - (1 << pos) - (1 << (pos + _PACK_BITS)), u, c))

    acc: dict[int, complex] = {}
    for k2, c2 in g._terms.items():
        kg = _pack(k2)
        kg |= kg << width
        rots = [(kg >> sh) & word_mask for sh in rot_shift]
        for s, a2, b2 in k2:
            for (a1, b1), ents in by_pair.items():
                factor = a1 * b2 - b1 * a2
                if not factor:
                    continue
                cg = c2 * factor
                for kfm, u, c1 in ents:
                    w = kfm + rots[u - s]
                    acc[w] = acc.get(w, 0.0) + c1 * cg

    kept = _cleaned(acc, f.kind, prune_rel, floor)

    # left alignment: rotate each word by minus its arc start
    ones = sum(1 << (_SLOT_BITS * x) for x in range(n))
    low = _PACK_MASK * ones
    start_of: dict[int, int] = {}
    aligned: dict[int, complex] = {}
    for w, v in kept.items():
        # bit 12x of occ is set iff site x carries an exponent
        occ = (((w | (w >> _PACK_BITS)) & low) + low) >> _PACK_BITS & ones
        start = start_of.get(occ)
        if start is None:
            start = _arc([x for x in range(n)
                          if occ >> (_SLOT_BITS * x) & 1], n)[0]
            start_of[occ] = start
        if start:
            shift = _SLOT_BITS * start
            w = ((w << (width - shift)) | (w >> shift)) & word_mask
        aligned[w] = aligned.get(w, 0.0) + v
    return SeedPoly(f.kind, n, {_unpack(w): v for w, v in aligned.items()})


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

    Construction turns every (slot, term) into a row of N flat indices
    into the per-site table T[a, b, s] = x_s**a * y_s**b, a, b = 0..e for
    the largest exponent e, one index per shift.  Few distinct rows occur
    (49 for the 668 slots of zeta_1 at N=16, a=0.05, prune 1e-7), so
    ``rows`` keeps each once and ``slots`` names the row of each (slot,
    term).  :meth:`table` builds T, (e+1)^2 N products of 2 (e+1) N
    powers; :meth:`gather` gathers the distinct rows from it, copies them
    out whole to every (slot, term) (width * terms row copies instead of
    width * terms * N single gathers), multiplies along the width axis
    and contracts with the coefficients.  Raising each gathered coordinate
    instead costs width * terms * N powers, on libm's slow path for the
    negative bases that about half of the coordinates are.  Each gathered
    factor is the same float64 product x_s**a * y_s**b, and the products
    and sums run in the same order, so the values are bit for bit those
    of that direct form.  ``top`` widens T to at least that exponent, so
    that evaluators of several seeds can share one table.
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
        self.rows, slots = np.unique(
            index.transpose(1, 0, 2).reshape(-1, n), axis=0,
            return_inverse=True)
        self.slots = slots.reshape(width, t)

    def table(self, state: np.ndarray) -> np.ndarray:
        """The per-site table T of one state."""
        n = self.n
        pw = state ** self.powers              # x**k, then y**k
        return pw[:, None, :n] * pw[None, :, n:]

    def gather(self, table: np.ndarray) -> np.ndarray:
        """Values of the N shifted seeds from a table T, shape (N,)."""
        return self.coeff @ table.take(self.rows).take(self.slots,
                                                       axis=0).prod(axis=0)

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
