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

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

# Relative coefficient threshold applied after arithmetic: keeps float noise
# from filling in, stays far below every test tolerance.
PRUNE_REL = 1e-15
# Tolerance for declaring a coefficient real when the kind is "real", and a
# Birkhoff-kind polynomial a real image in to_real (relative to the largest
# |c| in both).
REAL_IMAG_TOL = 1e-14

REAL = "real"
BIRKHOFF = "birkhoff"

# A monomial key is a tuple of (site, first-block exponent, second-block
# exponent) entries, sorted by site, with zero-exponent sites absent.
ExpKey = tuple[tuple[int, int, int], ...]


# -- lane words ---------------------------------------------------------------
#
# A seed is held as lane words only.  A term is a row of one byte per site,
# holding the first-block exponent in its low and the second-block exponent
# in its high 4-bit field, or of two bytes per site, one per block, when an
# exponent may reach 16.  The row, padded to whole 8-byte lanes, is read as
# little-endian uint64 lanes: one lane up to N = 8 in the 1-byte layout,
# ceil(bytes / 8) lanes beyond.  No field overflows, so adding two rows
# lane by lane adds their exponents site by site.  All seed arithmetic runs
# on the rows and values (``SeedPoly._words``).  Keys are a format for
# input and output: the constructor turns them into rows, and ``_terms``
# builds them when it is read.  Equal rows are found by sorting (_runs),
# and numbered in the order they first appear by :func:`_first_ids`; the
# graded term order of ``terms()`` and of the evaluators is
# :func:`_graded`; every coefficient cut is made by :func:`_kept`.

def _layout(n: int, top: int) -> tuple:
    """Site dtype, field bits and row length of the rows of n sites whose
    exponents stay below 16 when ``top`` does, and below 256 otherwise; an
    exponent of 256 or more raises ``ValueError``."""
    if top >= 256:
        raise ValueError("exponent too large for lane words")
    sdt = np.dtype(np.uint8 if top < 16 else "<u2")
    size = sdt.itemsize
    return sdt, 4 * size, -(-n * size // 8) * 8 // size


def _entries(keys: list):
    """Term index and (site, a, b) of every site entry of ``keys``."""
    lens = np.fromiter(map(len, keys), np.intp, len(keys))
    ents = np.fromiter(itertools.chain.from_iterable(
        itertools.chain.from_iterable(keys)), np.intp,
        3 * int(lens.sum())).reshape(-1, 3)
    return np.repeat(np.arange(len(keys)), lens), ents


def _rows(term, ents, count, layout):
    """Site rows of ``count`` terms from their entries."""
    sdt, bits, cols = layout
    rows = np.zeros((count, cols), sdt)
    rows[term, ents[:, 0]] = ents[:, 1] | ents[:, 2] << bits
    return rows


def _fields(rows):
    """The first- and second-block exponents of every site of ``rows``."""
    bits = 4 * rows.itemsize
    v = rows.astype(np.intp)
    return v & ((1 << bits) - 1), v >> bits


def _top(rows) -> int:
    """The largest exponent in ``rows``."""
    return int(max(f.max(initial=0) for f in _fields(rows)))


def _repacked(rows, n: int, layout):
    """``rows`` in ``layout``; the same array when it is theirs."""
    sdt, bits, cols = layout
    if rows.dtype == sdt:
        return rows
    a, b = _fields(rows[:, :n])
    out = np.zeros((len(rows), cols), sdt)
    out[:, :n] = a | b << bits
    return out


def _keys(rows, n: int) -> list:
    """The monomial key of each site row."""
    bits = 4 * rows.itemsize
    term, site = np.nonzero(rows[:, :n])
    v = rows[term, site]
    ents = list(zip(site.tolist(), (v & ((1 << bits) - 1)).tolist(),
                    (v >> bits).tolist()))
    keys, lo = [], 0
    for hi in np.cumsum(np.bincount(term, minlength=len(rows))).tolist():
        keys.append(tuple(ents[lo:hi]))
        lo = hi
    return keys


def _magnitudes(vals):
    """|c| of each value, bit for bit as Python's abs gives it: libm's
    hypot, which numpy's complex absolute does not always match."""
    return np.hypot(vals.real, vals.imag)


def _degrees(rows):
    """The total degree of each row."""
    a, b = _fields(rows)
    return a.sum(axis=1) + b.sum(axis=1)


def _imbalances(rows):
    """The imbalance d = |k| - |j| of each row: its second-block less its
    first-block exponents."""
    a, b = _fields(rows)
    return b.sum(axis=1) - a.sum(axis=1)


def _product(x, y):
    """x * y, each product part by part as Python multiplies two complex
    numbers (a float counts as complex(x, 0.0)): numpy's complex product
    may fuse a multiply and an add, and round otherwise."""
    out = np.empty(np.broadcast(x, y).shape, complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _sequential_sum(x) -> float:
    """The sum of ``x`` taken in order, one addition at a time."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


_MIX = ((np.uint64(0xBF58476D1CE4E5B9), np.uint64(31)),
        (np.uint64(0x94D049BB133111EB), np.uint64(29)))


def _mix(words):
    """A 64-bit mix of the lanes of each word, for sorting several lanes:
    a bijective multiply-xorshift step after each lane is folded in."""
    h = np.zeros(len(words), np.uint64)
    for j in range(words.shape[1]):
        h ^= words[:, j]
        for mul, shift in _MIX:
            h *= mul
            h ^= h >> shift
    return h


def _differs(words):
    """Whether each row of ``words`` differs from the row before it."""
    new = words[1:, 0] != words[:-1, 0]
    for j in range(1, words.shape[1]):
        new |= words[1:, j] != words[:-1, j]
    return new


def _runs(words, merge: bool = False):
    """The distinct rows of ``words``, sorted: the index of a row holding
    each, and for each row the index of its distinct row.

    One lane is sorted as it is; several are sorted by their mix, and when
    two different rows share a mix, by the lanes themselves.  ``merge``
    sorts stably, which merges words that come as sorted runs in few
    steps, and then the row given for each distinct word is its first."""
    key = words[:, 0] if words.shape[1] == 1 else _mix(words)
    order = np.argsort(key, kind="stable" if merge else None)
    new = _differs(words.take(order, axis=0))
    if words.shape[1] > 1:
        k = key.take(order)
        if (new & (k[1:] == k[:-1])).any():
            order = np.lexsort(words.T[::-1])
            new = _differs(words.take(order, axis=0))
    ids = np.zeros(len(words), np.intp)
    np.cumsum(new, out=ids[1:])
    inv = np.empty_like(ids)
    inv[order] = ids
    return np.concatenate((order[:1], order[1:][new])), inv


def _sums(inv, vals, count):
    """The sum of the values of each of ``count`` ids, in their order,
    each from 0.0, so that a lone -0.0 part becomes +0.0."""
    sums = np.zeros(count, vals.dtype)
    sums.real = np.bincount(inv, vals.real, count)
    if vals.dtype == complex:
        sums.imag = np.bincount(inv, vals.imag, count)
    return sums


def _first_ids(words):
    """Where each distinct row of ``words`` first appears, in that order,
    and for each row the number of its distinct row in that order."""
    first, inv = _runs(words, merge=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inv]


def _first_merged(rows, vals):
    """The distinct rows of ``rows``, each in the order it first appears,
    with the sum of its values taken in the order given."""
    first, ids = _first_ids(rows.view("<u8"))
    return rows.take(first, axis=0), _sums(ids, vals, len(first))


def _graded(rows, n):
    """The graded term order of ``rows``, and the (site, a, b) entries of
    each row in it, padded with -1 to the longest: rows sort by degree,
    then by their entries as Python compares key tuples, in which a key
    sorts before the keys it is a prefix of."""
    term, site = np.nonzero(rows[:, :n])
    j = np.arange(len(term)) - np.searchsorted(term, term)
    ents = np.full((len(rows), j.max(initial=-1) + 1, 3), -1, np.intp)
    ents[term, j] = np.stack((site, *_fields(rows[term, site])), axis=1)
    flat = ents.reshape(len(rows), 3 * ents.shape[1])
    order = np.lexsort((*flat.T[::-1], _degrees(rows)))
    return order, ents[order]


def _windows(rows, n):
    """A view of every rotation of the rows: [i, r] is row i rotated so
    that its site r comes first."""
    twice = np.concatenate((rows[:, :n], rows[:, :n]), axis=1)
    return np.lib.stride_tricks.sliding_window_view(twice, n, axis=1)


@functools.cache
def _pattern_arc(lanes: tuple, n: int, itemsize: int) -> tuple[int, int]:
    """The arc start and diameter of the occupancy pattern with these lane
    words."""
    occ = np.array(lanes, "<u8").view(f"<u{itemsize}")[:n]
    return _arc(np.flatnonzero(occ).tolist(), n)


def _arcs(rows, n):
    """The :func:`_pattern_arc` of each distinct occupancy pattern of the
    rows, and for each row the index of its pattern: :func:`_arc`, which
    owns the tie rule, runs once per pattern."""
    occ = (rows != 0).astype(rows.dtype).view("<u8")
    first, inv = _runs(occ)
    return [_pattern_arc(tuple(lanes), n, rows.itemsize)
            for lanes in occ.take(first, axis=0).tolist()], inv


def _aligned(rows, n):
    """Rows rotated so that each covering arc starts at site 0.  A rotated
    row need not be its own alignment: when largest gaps tie, its arc may
    start after another site (sites {0, 4} at N = 8, and {0, 1, 5, 8} at
    N = 12)."""
    found, inv = _arcs(rows, n)
    start = np.array([st for st, _ in found], np.intp)[inv]
    out = rows.copy()
    out[:, :n] = _windows(rows, n)[np.arange(len(rows)), start]
    return out


class CoordinateError(ValueError):
    """Coordinate-kind or chain-size mismatch between operands."""


class Monomial:
    """A single monomial: per-site exponent pairs, stored sparsely."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[tuple[int, int, int]]):
        acc: dict[int, list[int]] = {}
        for s, a, b in exps:
            if a < 0 or b < 0:
                raise ValueError("negative exponent")
            if a or b:
                ent = acc.setdefault(int(s), [0, 0])
                ent[0] += int(a)
                ent[1] += int(b)
        self.exps: ExpKey = tuple((s, ab[0], ab[1])
                                  for s, ab in sorted(acc.items()))

    def __repr__(self):
        return f"Monomial({self.exps!r})"


def _arc(sites: list[int], n: int) -> tuple[int, int]:
    """Start and diameter of the minimal covering arc of ring sites.

    ``sites`` are sorted and distinct, as in a monomial key.  The arc
    starts after the largest circular gap, the first one counted from the
    smallest site when several tie (sites {0, 4} at N = 8 start at 4), and
    its diameter, the interaction distance, is N minus that gap.  No sites
    give (0, 0).
    """
    if not sites:
        return 0, 0
    best_gap, start = 0, sites[0]
    for i, s in enumerate(sites):
        nxt = sites[i + 1] if i + 1 < len(sites) else sites[0] + n
        if nxt - s > best_gap:
            best_gap, start = nxt - s, nxt % n
    return start, n - best_gap


def _check_chain_size(n) -> None:
    if not isinstance(n, numbers.Integral) or n < 1:
        raise CoordinateError(f"a seed needs a chain size n >= 1, got {n!r}")


def _check_kind(f: SeedPoly, kind: str, name: str) -> None:
    """Raise unless ``f`` has coordinate kind ``kind``; ``name`` asks."""
    if f.kind != kind:
        word = "Birkhoff" if kind == BIRKHOFF else kind
        raise CoordinateError(f"{name} expects a {word}-kind polynomial")


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

    A seed is held as lane words (``_words``): the rows of its terms and
    their values.  The constructor builds them from keys; every operation
    returns a seed held as words; ``_terms`` builds the keys from the
    words when it is read.
    """

    __slots__ = ("kind", "n", "_words")

    def __init__(self, kind: str, n: int,
                 terms: dict[ExpKey, complex] | None = None):
        """The seed of ``terms``, keys as ``ExpKey`` describes them, after
        the 1e-15 clean.  A site outside [0, n) raises ``CoordinateError``;
        a negative exponent, one of 256 or more, and a key whose sites do
        not strictly increase raise ``ValueError``.  An entry (s, 0, 0) is
        accepted and dropped."""
        if kind not in (REAL, BIRKHOFF):
            raise CoordinateError(f"unknown coordinate kind {kind!r}")
        _check_chain_size(n)
        self.kind = kind
        self.n = n
        raw = terms or {}
        term, ents = _entries(list(raw))
        off = (ents[:, 0] < 0) | (ents[:, 0] >= n)
        if off.any():
            raise CoordinateError(f"site {ents[off, 0][0]} is off the ring "
                                  f"of {n} sites")
        if (ents[:, 1:] < 0).any():
            raise ValueError("negative exponent")
        if ((term[1:] == term[:-1]) & (ents[1:, 0] <= ents[:-1, 0])).any():
            raise ValueError("the sites of a key must strictly increase")
        rows = _rows(term, ents, len(raw),
                     _layout(n, int(ents[:, 1:].max(initial=0))))
        vals = np.fromiter(raw.values(), complex, len(raw))
        self._words = _clean(kind, rows, vals)

    @classmethod
    def _of_words(cls, kind: str, n: int, rows, vals) -> "SeedPoly":
        """A seed held as distinct lane-word rows and their values (floats
        in the real kind), unchecked."""
        out = cls.__new__(cls)
        out.kind, out.n = kind, n
        out._words = (rows, vals)
        return out

    @property
    def _terms(self) -> dict[ExpKey, complex]:
        """The terms as a dict from key to coefficient, in term order,
        built from the words on every read."""
        rows, vals = self._words
        return dict(zip(_keys(rows, self.n), vals.astype(complex).tolist()))

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

    # -- basic queries ---------------------------------------------------

    def terms(self) -> list[tuple[Monomial, complex]]:
        """(monomial, coefficient) in graded-lex order (:func:`_graded`)."""
        graded = self._subset(_graded(self._words[0], self.n)[0])
        return [(Monomial(k), v) for k, v in graded._terms.items()]

    def num_terms(self) -> int:
        return len(self._words[1])

    def is_zero(self) -> bool:
        return self.num_terms() == 0

    def max_degree(self) -> int:
        return int(_degrees(self._words[0]).max(initial=0))

    def graded_parts(self) -> dict[int, "SeedPoly"]:
        deg = _degrees(self._words[0])
        return {d: self._subset(deg == d) for d in dict.fromkeys(deg.tolist())}

    def _subset(self, keep) -> "SeedPoly":
        """The terms that ``keep``, a mask or an index array, selects."""
        rows, vals = self._words
        return SeedPoly._of_words(self.kind, self.n, rows[keep], vals[keep])

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "SeedPoly"):
        if self.kind != other.kind:
            raise CoordinateError("coordinate-kind mismatch")
        if self.n != other.n:
            raise CoordinateError("chain-size mismatch")

    def __add__(self, other: "SeedPoly") -> "SeedPoly":
        return sum_polys([self, other])

    def __sub__(self, other: "SeedPoly") -> "SeedPoly":
        return sum_polys([self, -other])

    def __neg__(self) -> "SeedPoly":
        """Exact: keeps the largest |c| and so the kept set, without a
        clean; real-kind values stay complex(-re, 0.0)."""
        rows, vals = self._words
        return SeedPoly._of_words(self.kind, self.n, rows, -vals)

    def scaled(self, c: complex) -> "SeedPoly":
        """c times f, with the 1e-15 clean; each product has the bits of
        Python's v * c."""
        if c == 0:
            return SeedPoly.zero(self.kind, self.n)
        rows, vals = self._words
        c = complex(c)
        out = (vals * c.real if self.kind == REAL and not c.imag
               else _product(vals, c))
        keep = _kept(out)
        if out.dtype != vals.dtype:     # real kind, complex c
            out = _real_parts(out)
        return SeedPoly._of_words(self.kind, self.n, rows[keep], out[keep])

    def partial(self, site: int, block: int) -> "SeedPoly":
        """Derivative with respect to the block-0 or block-1 variable of
        ``site``, with the 1e-15 clean; zero for a site outside [0, n).
        A block other than 0 or 1 raises ``ValueError``."""
        if block not in (0, 1):
            raise ValueError(f"block must be 0 or 1, got {block!r}")
        if not 0 <= site < self.n:
            return SeedPoly.zero(self.kind, self.n)
        rows, vals = self._words
        exps = _fields(rows[:, site])[block]
        hit = exps > 0
        out = rows[hit]
        out[:, site] -= 1 << block * 4 * rows.itemsize
        # 0.0 + c * e, as Python adds and multiplies
        vals = 0.0 + _product(vals[hit], exps[hit].astype(complex))
        return SeedPoly._of_words(self.kind, self.n,
                                  *_clean(self.kind, out, vals))

    def max_abs_coeff(self) -> float:
        return float(_magnitudes(self._words[1]).max(initial=0.0))

    def prune(self, rel: float | None) -> "SeedPoly":
        """Drop the coefficients below ``rel`` times the largest one."""
        return self._subset(_kept(self._words[1], rel))

    def max_coeff_diff(self, other: "SeedPoly") -> float:
        return (self - other).max_abs_coeff()

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


def _check_cut(rel: float | None, floor: float = 0.0) -> None:
    """The arguments :func:`_kept` accepts; NaN fails both tests."""
    if not (rel is None or 0.0 < rel < 1.0) or not 0.0 <= floor < math.inf:
        raise ValueError(f"prune_rel must be None or in (0, 1) and floor "
                         f"finite and >= 0, got {rel!r} and {floor!r}")


def _cut_level(top: float, rel: float | None = None,
               floor: float = 0.0) -> float:
    """The cut of :func:`_kept` below a largest |c| of ``top``: every
    |c| >= max(max(PRUNE_REL, rel) * top, floor) is kept (NaN too, so that
    it shows), and nothing when ``top`` is 0.  Checks the arguments."""
    _check_cut(rel, floor)
    if top == 0.0:
        return math.inf
    return max(max(PRUNE_REL, rel or 0.0) * top, floor)


def _kept(vals, rel: float | None = None, floor: float = 0.0):
    """The one coefficient cut: which of ``vals`` reach the cut that
    :func:`_cut_level` sets below their largest |c|, with |c| as Python's
    abs gives it.  ``rel = None`` is the plain 1e-15 clean."""
    mag = _magnitudes(vals)
    return ~(mag < _cut_level(mag.max(initial=0.0), rel, floor))


def _clean(kind: str, rows, vals) -> tuple:
    """The rows and values that the 1e-15 clean keeps, real-kind values as
    floats (:func:`_real_parts`)."""
    keep = _kept(vals)
    if kind == REAL:
        vals = _real_parts(vals)
    return rows[keep], vals[keep]


def _real_parts(vals):
    """The real parts of real-kind values; an imaginary part above
    ``REAL_IMAG_TOL`` times the largest |c| raises ``CoordinateError``."""
    bad = np.abs(vals.imag) > REAL_IMAG_TOL * _magnitudes(vals).max(
        initial=0.0)
    if bad.any():
        raise CoordinateError(f"real-kind coefficient has imaginary part "
                              f"{vals.imag[bad][0]:g}")
    return vals.real.copy()


def sum_polys(polys: Iterable[SeedPoly], kind: str | None = None,
              n: int | None = None) -> SeedPoly:
    """Sum many polynomials in one pass on their lane words: each distinct
    row in the order it first appears, its values summed in the order
    given, then the 1e-15 clean.  No keys are built.  No polynomials sum
    to the zero of ``kind`` (real by default) on ``n`` sites."""
    polys = list(polys)
    if not polys:
        return SeedPoly.zero(kind or REAL, n)
    first = polys[0]
    for p in polys[1:]:
        first._check_compatible(p)
    held = [p._words for p in polys]
    layout = _layout(first.n, max(_top(rows) for rows, _ in held))
    rows, vals = _first_merged(
        np.concatenate([_repacked(r, first.n, layout) for r, _ in held]),
        np.concatenate([v for _, v in held]))
    keep = _kept(vals)
    return SeedPoly._of_words(first.kind, first.n, rows[keep], vals[keep])


# -- Poisson bracket -----------------------------------------------------

def poisson_bracket(f: SeedPoly, g: SeedPoly) -> SeedPoly:
    """Canonical bracket {f, g} = sum_l (df/dx_l dg/dy_l - df/dy_l dg/dx_l).

    The same pairing is used in complex coordinates (xi in the first block,
    eta in the second, {xi_l, eta_l} = 1).  Homogeneous inputs of degrees
    r and s yield a homogeneous result of degree r + s - 2.

    Taken from the definition, term pair by term pair: at each site l the
    terms c_f x^a1 y^b1 and c_g x^a2 y^b2 share, the pair adds
    (a1 b2 - b1 a2) c_f c_g to their product less one x_l and one y_l.  It
    is the plain reference that the seed kernel
    :func:`kgchain.cyclic.seed_bracket` is tested against.
    """
    f._check_compatible(g)
    acc: dict[ExpKey, complex] = {}
    gterms = g._terms
    for k1, c1 in f._terms.items():
        ents1 = {s: (a, b) for s, a, b in k1}
        for k2, c2 in gterms.items():
            for s, a2, b2 in k2:
                a1, b1 = ents1.get(s, (0, 0))
                factor = a1 * b2 - b1 * a2
                if factor:
                    k = _less_pair(_merge_exps(k1, k2), s)
                    acc[k] = acc.get(k, 0.0) + c1 * c2 * factor
    return SeedPoly(f.kind, f.n, acc)


def _less_pair(key: ExpKey, site: int) -> ExpKey:
    """``key`` less one first-block and one second-block factor at ``site``."""
    out = []
    for s, a, b in key:
        if s == site:
            a, b = a - 1, b - 1
        if a or b:
            out.append((s, a, b))
    return tuple(out)


# -- norms ----------------------------------------------------------------

def poly_norm(f: SeedPoly, radius: float) -> float:
    """Weighted coefficient norm: sum over degrees s of R^s * sum |c|."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    rows, vals = f._words
    deg = _degrees(rows)
    # R^s by Python's **, once per degree: numpy's power can differ in
    # the last bit; the terms are summed in term order
    weight = np.array([radius ** s for s in range(deg.max(initial=0) + 1)])
    return _sequential_sum(weight[deg] * _magnitudes(vals))


# -- real <-> complex conversion ------------------------------------------

_IPOW = (1.0, 1j, -1.0, -1j)


@functools.cache
def _site_matrix(m: int, unit: int) -> np.ndarray:
    """u^a v^(m-a) after u = (p + unit*i q)/sqrt2, v = (unit*i p + q)/sqrt2,
    without the 2^(-m/2) factor, for a = 0..m: entry [a, e] is the weight
    of p^e q^(m-e).

    unit = 1 takes (x, y) to (xi, eta); unit = -1 is the inverse.  The
    entries are Gaussian integers, exact in floating point.
    """
    out = np.zeros((m + 1, m + 1), complex)
    for a in range(m + 1):
        for i in range(a + 1):
            for j in range(m - a + 1):
                out[a, i + j] += (comb(a, i) * comb(m - a, j)
                                  * _IPOW[unit * (a - i + j) % 4])
    out.flags.writeable = False
    return out


def _convert(rows, vals, kind: str, n: int) -> SeedPoly:
    """The substitution of :func:`_site_matrix` on the terms with these
    rows and values, into a polynomial of coordinate kind ``kind``:
    Birkhoff with unit 1, real with unit -1, which keeps the real parts.

    A term's output terms depend only on its pattern, the row m of its
    per-site degrees a + b, and every pattern maps onto itself.  So the
    terms of a pattern fill a dense tensor with one axis of length m_s + 1
    per occupied site s, indexed by a, which is contracted with the site
    matrices axis by axis, all patterns of one shape (the m_s in site
    order) at once.  Patterns and shapes are taken in the order they first
    appear.  An entry of the tensors is an output term whose row holds its
    axis indices as first-block exponents, in C order, so the first site
    varies slowest.  The cut of :func:`_kept` is made on the arrays, so
    entries that cancel exactly give no term.
    """
    unit = 1 if kind == BIRKHOFF else -1
    a, b = _fields(rows[:, :n])
    m = a + b
    first, pat = _first_ids(m.view("<u8"))
    m = m[first]
    # C-order strides of each pattern's axes; an empty site has length 1
    within = np.cumprod((m + 1)[:, ::-1], axis=1)[:, ::-1]
    width = within[:, 0]
    stride = np.ones_like(within)
    stride[:, :-1] = within[:, 1:]
    # each pattern's shape, its nonzero m_s left-packed
    shape = np.take_along_axis(m, np.argsort(m == 0, axis=1, kind="stable"),
                               axis=1)
    sfirst, srank = _first_ids(shape.view("<u8"))
    pats = np.argsort(srank, kind="stable")     # patterns in tensor order
    offset = np.empty(len(m), np.intp)
    offset[pats] = np.cumsum(width[pats]) - width[pats]
    dense = np.zeros(int(width.sum()), complex)
    dense[offset[pat] + (a * stride[pat]).sum(axis=1)] = vals
    lo = 0
    for p, count in zip(sfirst.tolist(), np.bincount(srank).tolist()):
        hi = lo + count * int(width[p])
        block = dense[lo:hi]
        for ms in shape[p][shape[p] > 0].tolist():
            # the first site axis is contracted and its output axis goes
            # last, so after every site the axes are back in site order
            block = (block.reshape(count, ms + 1, -1).transpose(0, 2, 1)
                     .reshape(-1, ms + 1) @ _site_matrix(ms, unit))
        deg = int(m[p].sum())
        # Exact power of 1/2 for even degree; odd degrees keep a sqrt(2).
        scale = 0.5 ** (deg // 2) * (0.7071067811865476 if deg % 2 else 1.0)
        dense[lo:hi] = block.reshape(-1) * scale
        lo = hi
    if kind == REAL:
        dense = dense.real
    kept = np.flatnonzero(_kept(dense))
    p = np.repeat(pats, width[pats])[kept]
    a = (kept - offset[p])[:, None] // stride[p] % (m[p] + 1)
    b = m[p] - a
    sdt, bits, cols = _layout(n, int(max(a.max(initial=0),
                                         b.max(initial=0))))
    out = np.zeros((len(kept), cols), sdt)
    out[:, :n] = a | b << bits
    return SeedPoly._of_words(kind, n, out, dense[kept])


def to_complex(f: SeedPoly) -> SeedPoly:
    """Substitute x = (xi + i eta)/sqrt2, y = (i xi + eta)/sqrt2."""
    _check_kind(f, REAL, "to_complex")
    rows, vals = f._words
    return _convert(rows, vals, BIRKHOFF, f.n)


def to_real(f: SeedPoly) -> SeedPoly:
    """Inverse substitution; raises unless ``f`` is Birkhoff kind and the
    image of a real polynomial, its :func:`reality_defect` at most
    ``REAL_IMAG_TOL`` times its largest |c|.

    The reality map takes the imbalance sector d = |k| - |j| onto -d and
    each term's inverse image onto its complex conjugate.  So f is its
    d = 0 terms plus a d > 0 half h plus the mirror of h, and the result
    is the inverse image of the d = 0 terms plus 2 Re of that of h: only
    the d >= 0 terms are expanded (:func:`_to_real_sectors`).
    """
    _check_kind(f, BIRKHOFF, "to_real")
    defect = reality_defect(f)
    if defect > REAL_IMAG_TOL * f.max_abs_coeff():
        raise CoordinateError(f"to_real expects the image of a real "
                              f"polynomial; reality defect {defect:g}")
    return _to_real_sectors(*_imbalance_sectors(f))


def _to_real_sectors(kernel: SeedPoly, half: SeedPoly) -> SeedPoly:
    """The real polynomial whose Birkhoff image has the d = 0 terms of
    ``kernel``, the d > 0 terms of ``half`` and their mirror as d < 0
    terms, unchecked: Re of the inverse image of kernel + 2 half, in one
    expansion, the terms of kernel first."""
    n = kernel.n
    (krows, kvals), (hrows, hvals) = kernel._words, half._words
    layout = _layout(n, max(_top(krows), _top(hrows)))
    rows = np.concatenate([_repacked(r, n, layout) for r in (krows, hrows)])
    # 2.0 * c, as Python multiplies a float and a complex number
    vals = np.concatenate((kvals, _product(2.0, hvals)))
    return _convert(rows, vals, REAL, n)


def _imbalance_sectors(f: SeedPoly) -> tuple[SeedPoly, SeedPoly]:
    """The terms of ``f`` with imbalance d = 0 and with d > 0."""
    d = _imbalances(f._words[0])
    return f._subset(d == 0), f._subset(d > 0)


def mirror(f: SeedPoly) -> SeedPoly:
    """The reality map: c xi^j eta^k goes to i^deg conj(c) xi^k eta^j.

    An involution that takes the imbalance sector d onto -d; its fixed
    points are the images of real polynomials.  It swaps the two fields of
    every site; the values are the Python products i^deg * conj(c).
    """
    _check_kind(f, BIRKHOFF, "mirror")
    rows, vals = f._words
    a, b = _fields(rows)
    swapped = (b | a << 4 * rows.itemsize).astype(rows.dtype)
    ipow = np.array(_IPOW, complex)[_degrees(rows) % 4]
    return SeedPoly._of_words(BIRKHOFF, f.n, swapped,
                              _product(ipow, vals.conj()))


def reality_defect(f: SeedPoly) -> float:
    """Deviation from the reality condition b_{j,k} = i^s conj(b_{k,j}):
    the largest |c| of f - mirror(f).

    Zero (up to roundoff) exactly when the polynomial is the image of a
    real polynomial.  For quadratics the condition reduces to the familiar
    antisymmetric form b_{j,k} = -conj(b_{k,j}).
    """
    _check_kind(f, BIRKHOFF, "reality_defect")
    return f.max_coeff_diff(mirror(f))


# -- alignment, decay ------------------------------------------------------

def left_align(f: SeedPoly) -> SeedPoly:
    """Shift every monomial so its minimal covering arc starts at site 0.

    A per-monomial shift is a valid reseeding of the same cyclic function.
    Terms that land on one key merge into it where the first one lands,
    their values summed in term order, with no clean.
    """
    rows, vals = f._words
    rows, vals = _first_merged(_aligned(rows, f.n), vals)
    return SeedPoly._of_words(f.kind, f.n, rows, vals)


def decay_decompose(f: SeedPoly) -> dict[int, SeedPoly]:
    """Split into parts of exact interaction distance m, each left aligned.

    The interaction distance of a term is the length of its minimal
    covering arc (:func:`_arc`), the one distance kgchain measures: it
    depends on the cyclic function only, not on the frame its keys are
    stored in.  The parts, nearest first, are disjoint and re-sum to (a
    reseeding of) the input.
    """
    aligned = left_align(f)
    found, inv = _arcs(aligned._words[0], f.n)
    diameter = np.array([m for _, m in found], np.intp)[inv]
    return {m: aligned._subset(diameter == m)
            for m in sorted(set(diameter.tolist()))}


def norm_pairs(f: SeedPoly) -> list[tuple[int, float]]:
    """(m, ||f^(m)||_1) per interaction distance m, nearest first: the
    per-distance norms, at radius 1, that decay envelopes are read from."""
    return [(m, poly_norm(p, 1.0)) for m, p in decay_decompose(f).items()]


@dataclass(frozen=True)
class DecayProfile:
    """Envelope ||f^(m)||_1 <= C exp(-sigma m), valid for every listed m."""
    pairs: tuple[tuple[int, float], ...]
    c: float
    sigma: float

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


def fit_decay(pairs: Iterable[tuple[int, float]]) -> DecayProfile:
    """Fit a valid decay envelope to per-distance norms (m, ||f^(m)||_1),
    such as :func:`norm_pairs` gives.

    The rate is the smallest log-slope from the first nonzero part (so the
    envelope anchored there is tight); the constant is then the tight
    envelope constant at that rate, which makes the profile a valid
    envelope for every m rather than a regression.
    """
    pairs = sorted(pairs)
    nz = [(m, v) for m, v in pairs if v > 0.0]
    if not nz:
        return DecayProfile(tuple(pairs), 0.0, 1.0)
    m0, v0 = nz[0]
    slopes = [(math.log(v0) - math.log(v)) / (m - m0)
              for m, v in nz[1:] if m > m0]
    sigma = max(min(slopes), 1e-12) if slopes else 1.0
    c = envelope_constant(pairs, sigma)
    return DecayProfile(tuple(pairs), c, sigma)


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
    """The seed of a :func:`seed_to_dict` dict, its terms on one key
    summed; the constructor checks its sites and exponents."""
    acc: dict[ExpKey, complex] = {}
    for t in d["terms"]:
        key = Monomial(zip(t["sites"], t["xexp"], t["yexp"])).exps
        acc[key] = acc.get(key, 0.0) + complex(t["re"], t["im"])
    return SeedPoly(d["kind"], d["n"], acc)
