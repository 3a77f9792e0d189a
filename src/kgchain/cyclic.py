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
    SeedPoly,
    poly_norm,
    sum_polys,
    _aligned,
    _check_kind,
    _fields,
    _kept,
    _layout,
    _repacked,
    _runs,
    _sums,
    _top,
    _windows,
)

# realize() is intended as a test oracle; beyond this size it refuses.
REALIZE_CAP = 12


def cyclic_shift(f: SeedPoly, l: int) -> SeedPoly:
    """Apply tau^l: site indices decrease by l (mod N).

    A rotation of f's lane-word rows, in term order: a shift is a
    bijection on keys, so nothing merges.  Adding 0.0 makes a -0.0 part
    +0.0, as the sums of a merge do."""
    n = f.n
    rows, vals, _ = f._words
    out = rows.copy()
    out[:, :n] = _windows(rows, n)[:, l % n]
    return SeedPoly._of_words(f.kind, n, out, vals + 0.0, False)


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


# -- the seed kernel on lane words --------------------------------------------
#
# The rows and lanes are those of :mod:`kgchain.chainpoly` (its "lane
# words" block).  "Multiply two monomials and differentiate once in each
# block at site u" is kf - unit(u) + kg, with unit(u) the word of
# xi_u eta_u.  The subtraction may borrow inside a lane and the addition
# repays it, so both are made on whole lanes, mod 2^64.  A shift of the
# ring permutes the sites of a row: rot(w, r) moves every site x of w to
# x + r (mod n).

# _CHUNK bounds the contact arrays of one step, not the whole memory: the
# rotation table of g holds |g orbits| x |shifts used| rows of N sites, f
# holds one word per site entry, and the merged sum grows with the
# distinct words.
_CHUNK = 1 << 14        # f-entry x g-entry pairs per step
_MAX_EXPONENT = 63      # an exponent sum of f and g must stay below it


def _grouped(words, vals, merge: bool = False):
    """Distinct words, sorted, with the sum of the values of each.

    The values are summed in their own order, so the sums do not depend
    on how the sort orders equal words.  ``merge`` is that of
    :func:`kgchain.chainpoly._runs`."""
    first, inv = _runs(words, merge)
    return words.take(first, axis=0), _sums(inv, vals, len(first))


def _merged(parts: list):
    """:func:`_grouped` of the (words, values) parts, which it drops from
    ``parts`` once they are joined."""
    words = np.concatenate([w for w, _ in parts])
    vals = np.concatenate([v for _, v in parts])
    parts.clear()
    return _grouped(words, vals, merge=True)


def seed_bracket(f: SeedPoly, g: SeedPoly, *,
                 prune_rel: float | None = None,
                 floor: float = 0.0) -> SeedPoly:
    """A left-aligned seed of {f^+, g^+}: the bracket {f, sum_l tau^l g}.

    Only shifts l that bring a site of tau^l g onto a site of f contribute,
    so the cost is independent of N for short-range seeds; shifts are taken
    mod N, which keeps small-N wrap-around exact.

    The sum over shifts is contact-driven, on lane words.  A contact is
    a site entry (u, a1, b1) of an f-term meeting a site entry (s, a2, b2)
    of a g-term: the shift tau^(s-u) carries site s of g onto site u, so
    the pair adds (a1 b2 - b1 a2) c_f c_g to the word
    kf - unit(u) + rot(kg, u - s).  Each (pair, shift, site) term of the
    shift sum is one contact, so no shift set is built; the rotations of g
    that contacts use are gathered once per bracket, with a table of the
    rotation each site of f and each entry of g call for.  Contacts are
    made about ``_CHUNK`` at a time, as arrays over a block of f entries
    and a block of g entries, masked where the factor is 0; each chunk is
    sorted and summed per word, and the chunk sums are merged whenever
    they outgrow the sum merged so far, so merging costs O(C log C) for C
    contacts.

    Every shift of g is summed, so the frame each key of g is stored in
    cannot change the result: g's rows are first left aligned and summed
    per orbit, by the same array alignment the output gets, which moves
    only the order of summation, so the cost follows the orbits of g, not
    its keys.  A g this kernel made in the same layout is merged already,
    unless some of its rows align again (ties, below), and is taken as it
    is.  f is not merged: the words stay in f's frame, and f's frame
    fixes the output keys.  The covering-arc rule breaks ties between
    equal largest gaps by the frame (sites {0, 4} at N = 8), so another
    frame of f would store some orbits under other keys and move per-key
    pruning.

    The raw words get the one coefficient cut, :func:`kgchain.chainpoly.
    _kept`: it keeps |c| >= max(max(1e-15, ``prune_rel``) * largest |c|,
    ``floor``), with |c| as Python's abs gives it, so a
    ``prune_rel`` below 1e-15 (or None) acts as the 1e-15 clean, and it
    raises ``ValueError`` unless ``prune_rel`` is None or in (0, 1) and the
    absolute ``floor`` is finite and >= 0.  Then each kept word is rotated
    so that its covering arc starts at site 0; kept words that align onto
    one word merge and may cancel, so they get the 1e-15 clean of every
    SeedPoly.  The result holds these words.  ``ValueError`` is raised as
    well when an exponent of f plus one of g reaches 63.  Real-kind
    coefficients are real, so they are summed as floats.
    """
    f._check_compatible(g)
    n = f.n
    frows, cf, _ = f._words
    grows, cg, aligned = g._words
    top = _top(frows) + _top(grows)
    if top >= _MAX_EXPONENT:
        raise ValueError("exponent too large for the packed bracket")
    layout = _layout(n, top)
    sdt, bits, cols = layout

    # g merged per orbit, then its entries (j, s, a2, b2) and rotations; a
    # g the kernel made in this layout is merged already, and adding 0.0
    # clears the negative zeros that a merge's sums would not have
    if grows.dtype == sdt and aligned:
        gw, cg = grows.view("<u8"), cg + 0.0
    else:
        gw, cg = _grouped(_aligned(_repacked(grows, n, layout), n)[0]
                          .view("<u8"), cg)
    grows = gw.view(sdt)
    gj, s = np.nonzero(grows[:, :n])
    # exponents below 63 keep every contact factor within int16
    ga, gb = (x.astype(np.int16) for x in _fields(grows[gj, s]))
    cg = cg[gj]

    # f's entries (u, a1, b1), each with its word less unit(u)
    frows = _repacked(frows, n, layout)
    fi, u = np.nonzero(frows[:, :n])
    fa, fb = (x.astype(np.int16) for x in _fields(frows[fi, u]))
    unit = np.zeros((n, cols), sdt)
    unit[np.arange(n), np.arange(n)] = 1 | 1 << bits
    wfm = (frows.view("<u8").take(fi, axis=0)
           - unit.view("<u8").take(u, axis=0))
    cf = cf[fi]

    # the rotations of g that contacts use, and for each site of f and
    # each entry of g the rotation a contact of the two adds
    sites = np.unique(u)
    shifts = np.unique((sites[:, None] - np.unique(s)) % n)
    slot = np.full(n, -1, np.intp)
    slot[shifts] = np.arange(len(shifts))
    rots = np.zeros((len(grows), len(shifts), cols), sdt)
    rots[:, :, :n] = _windows(grows, n)[:, -shifts % n]
    rots = rots.reshape(-1, cols).view("<u8")
    rot_of = gj * len(shifts) + slot[(sites[:, None] - s) % n]
    fsite = np.searchsorted(sites, u)

    parts, pending = [], 0      # the merged sum, then the chunk sums after it
    fstep = max(1, min(len(u), _CHUNK))
    gstep = max(1, _CHUNK // fstep)
    for p0 in range(0, len(u), fstep):
        p = slice(p0, p0 + fstep)
        for q0 in range(0, len(s), gstep):
            q = slice(q0, q0 + gstep)
            fac = fa[p, None] * gb[q] - fb[p, None] * ga[q]
            hit = fac != 0
            per_f = hit.sum(axis=1)
            words = np.repeat(wfm[p], per_f, axis=0) + rots.take(
                rot_of[fsite[p], q][hit], axis=0)
            vals = (cf[p, None] * (cg[q] * fac))[hit]
            parts.append(_grouped(words, vals))
            if len(parts) > 1:
                pending += len(parts[-1][0])
                if pending > len(parts[0][0]):
                    parts, pending = [_merged(parts)], 0
    raw, vals = (_merged(parts) if len(parts) > 1 else parts[0] if parts
                 else (wfm[:0], cf[:0]))

    keep = _kept(vals, prune_rel, floor)
    rows, aligned = _aligned(raw[keep].view(sdt), n)
    raw, vals = _grouped(rows.view("<u8"), vals[keep])
    keep = _kept(vals)
    return SeedPoly._of_words(f.kind, n, raw[keep].view(sdt), vals[keep],
                              aligned)


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
    # the occupied sites as a set filled term by term, site by site: its
    # iteration order sets the order of the sums, and so the key order and
    # the rounding of the field seeds
    sites = set(np.nonzero(f._words[0][:, :f.n])[1].tolist())
    xq = sum_polys((cyclic_shift(f.partial(l, 1), l) for l in sites),
                   kind=f.kind, n=f.n)
    xp = -sum_polys((cyclic_shift(f.partial(l, 0), l) for l in sites),
                    kind=f.kind, n=f.n)
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
        _check_kind(f, REAL, "RealizedEvaluator")
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
        self.powers = np.arange(max(aexp.max(initial=0),
                                    bexp.max(initial=0), top) + 1)[:, None]
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
        top = max(_top(p._words[0]) for p in (fs.xq, fs.xp))
        self._eq = RealizedEvaluator(fs.xq, shift_sign=1, top=top)
        self._ep = RealizedEvaluator(fs.xp, shift_sign=1, top=top)

    def __call__(self, state: np.ndarray) -> np.ndarray:
        """Full field (dx/dt, dy/dt), shape (2N,)."""
        table = self._eq.table(state)
        return np.concatenate([self._eq.gather(table),
                               self._ep.gather(table)])
