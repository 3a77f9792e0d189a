"""Independent dense polynomial engine used as ground truth in tests.

Polynomials over the full ring of 2N variables are plain dictionaries
mapping exponent tuples (x_0..x_{N-1}, y_0..y_{N-1}) to complex
coefficients.  Everything is written directly from the definitions, with
different data structures and code paths than the package under test.
:func:`seed_convert`, the term-by-term coordinate change on seed keys, is
the reference of the package's array kernel; :func:`dict_sum`, the sum of
seeds key by key, that of its sum on lane words; :func:`neumann_solve`,
the homological solver's Neumann series on key dicts, that of its loop on
lane words; and :func:`unique_first_ids`, numpy's unique over rows, that
of the row numbering by sorting.  The ``dict_*`` functions and
:func:`seed_product` are the package's former key-dict implementations of
operations it now runs on lane words, kept as their bit-for-bit
references.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

Poly = dict


def p_zero() -> Poly:
    return {}


def p_term(exps: tuple[int, ...], c: complex) -> Poly:
    return {tuple(exps): complex(c)}


def p_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0.0) + v
        if out[k] == 0:
            del out[k]
    return out


def p_scale(p: Poly, c: complex) -> Poly:
    return {k: v * c for k, v in p.items()}


def p_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0.0) + v1 * v2
    return out


def p_pow(p: Poly, e: int) -> Poly:
    out = None
    for _ in range(e):
        out = p_mul(out, p) if out is not None else dict(p)
    return out if out is not None else {(): 1.0}


def p_diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for k, v in p.items():
        if k[i]:
            kk = list(k)
            kk[i] -= 1
            out[tuple(kk)] = out.get(tuple(kk), 0.0) + v * k[i]
    return out


def p_poisson(p: Poly, q: Poly, n: int) -> Poly:
    """{p, q} = sum_l dp/dx_l dq/dy_l - dp/dy_l dq/dx_l."""
    out: Poly = {}
    for l in range(n):
        out = p_add(out, p_mul(p_diff(p, l), p_diff(q, n + l)))
        out = p_add(out, p_scale(p_mul(p_diff(p, n + l), p_diff(q, l)), -1))
    return out


def p_tau(p: Poly, n: int) -> Poly:
    """Site indices decrease by one (the project-wide orientation)."""
    out: Poly = {}
    for k, v in p.items():
        x = k[:n]
        y = k[n:]
        kk = tuple(x[1:] + x[:1]) + tuple(y[1:] + y[:1])
        out[kk] = out.get(kk, 0.0) + v
    return out


def p_realize(seed: Poly, n: int) -> Poly:
    out: Poly = {}
    cur = dict(seed)
    for _ in range(n):
        out = p_add(out, cur)
        cur = p_tau(cur, n)
    return out


def p_max_abs(p: Poly) -> float:
    return max((abs(v) for v in p.values()), default=0.0)


def p_max_diff(p: Poly, q: Poly) -> float:
    keys = set(p) | set(q)
    return max((abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys),
               default=0.0)


def p_norm1(p: Poly) -> float:
    return sum(abs(v) for v in p.values())


def p_eval(p: Poly, z) -> complex:
    total = 0.0
    for k, v in p.items():
        term = v
        for e, zz in zip(k, z):
            if e:
                term *= zz ** e
        total += term
    return total


def from_seed_terms(terms, n: int) -> Poly:
    """Build a dense polynomial from (sites, xexp, yexp, coeff) data."""
    out: Poly = {}
    for sites, xexp, yexp, c in terms:
        k = [0] * (2 * n)
        for s, a, b in zip(sites, xexp, yexp):
            k[s % n] += a
            k[n + (s % n)] += b
        k = tuple(k)
        out[k] = out.get(k, 0.0) + complex(c)
    return out


def from_seedpoly(f, n: int) -> Poly:
    """Faithful data conversion of a package polynomial (no operations)."""
    data = []
    for m, c in f.terms():
        data.append(([s for s, _, _ in m.exps], [a for _, a, _ in m.exps],
                     [b for _, _, b in m.exps], c))
    return from_seed_terms(data, n)


def p_birkhoff(p: Poly, n: int) -> Poly:
    """Substitute x_j = (xi_j + i eta_j)/sqrt2, y_j = (i xi_j + eta_j)/sqrt2.

    The output tuple layout is (xi exponents, eta exponents).
    """
    return _p_substitute(p, n, (1.0, 1j), (1j, 1.0))


def p_real(p: Poly, n: int) -> Poly:
    """Substitute xi_j = (x_j - i y_j)/sqrt2, eta_j = (-i x_j + y_j)/sqrt2,
    the inverse of :func:`p_birkhoff`.

    The input tuple layout is (xi exponents, eta exponents), the output
    one (x exponents, y exponents).
    """
    return _p_substitute(p, n, (1.0, -1j), (-1j, 1.0))


def _p_substitute(p: Poly, n: int, first, second) -> Poly:
    """Replace each first-block variable of site j by (first[0] u_j +
    first[1] v_j)/sqrt2 and each second-block one by (second[0] u_j +
    second[1] v_j)/sqrt2, with (u, v) the new blocks."""
    s2 = 1.0 / math.sqrt(2.0)
    out: Poly = {}
    for k, v in p.items():
        parts = [((0,) * (2 * n), v)]
        for i, e in enumerate(k):
            if e == 0:
                continue
            cu, cv = first if i < n else second
            var = p_add(p_term(_unit(2 * n, i % n), cu * s2),
                        p_term(_unit(2 * n, n + i % n), cv * s2))
            powd = p_pow(var, e)
            parts = [(tuple(a + b for a, b in zip(kk, k2)), vv * v2)
                     for kk, vv in parts for k2, v2 in powd.items()]
        for kk, vv in parts:
            out[kk] = out.get(kk, 0.0) + vv
    return out


_IPOW = (1.0, 1j, -1.0, -1j)


def _seed_site_table(a: int, b: int, unit: int) -> dict:
    """{(first, second) exponents: weight} of u^a v^b after
    u = (p + unit*i q)/sqrt2, v = (unit*i p + q)/sqrt2, without the
    2^(-(a+b)/2) factor; unit = 1 is x, y -> xi, eta and -1 the inverse."""
    out: dict = {}
    for i in range(a + 1):
        ca = math.comb(a, i) * _IPOW[unit * (a - i) % 4]
        for j in range(b + 1):
            c = ca * math.comb(b, j) * _IPOW[unit * j % 4]
            key = (i + j, (a - i) + (b - j))
            out[key] = out.get(key, 0.0) + c
    return out


def seed_convert(terms: dict, unit: int) -> dict:
    """The conversion of seed terms {key: c}, in package key format, term
    by term and site by site: the per-term reference of the package's
    array kernel.  unit = 1 converts real to Birkhoff, -1 back; nothing is
    cleaned."""
    acc: dict = {}
    for k, c in terms.items():
        deg = sum(a + b for _, a, b in k)
        partial = [((), c * 2.0 ** (-deg / 2))]
        for s, a, b in k:
            partial = [(key + ((s, ea, eb),), coeff * w)
                       for key, coeff in partial
                       for (ea, eb), w in _seed_site_table(a, b, unit).items()]
        for key, coeff in partial:
            acc[key] = acc.get(key, 0.0) + coeff
    return acc


def imbalance(key) -> int:
    """|k| - |j|: total second-block minus first-block exponents."""
    d = 0
    for _, a, b in key:
        d += b - a
    return d


def seed_of(kind, n, terms: dict):
    """The seed of exactly these terms, in their order, with no clean (real
    kind values as their real parts)."""
    from kgchain.chainpoly import REAL, SeedPoly
    rows = SeedPoly(kind, n, dict.fromkeys(terms, 1.0))._words[0]
    vals = np.array(list(terms.values()), complex)
    return SeedPoly._of_words(kind, n, rows,
                              vals.real.copy() if kind == REAL else vals)


def seed_product(f, g):
    """The product of two seeds, term pair by term pair."""
    from kgchain.chainpoly import SeedPoly, _merge_exps
    f._check_compatible(g)
    acc: dict = {}
    gterms = g._terms
    for k1, c1 in f._terms.items():
        for k2, c2 in gterms.items():
            k = _merge_exps(k1, k2)
            acc[k] = acc.get(k, 0.0) + c1 * c2
    return SeedPoly(f.kind, f.n, acc)


def dict_convert(items, kind, n):
    """The conversion kernel on (key, c) items: patterns grouped from the
    keys, and each output key built by a product over the pattern's site
    entries.  The reference of :func:`kgchain.chainpoly._convert`."""
    from kgchain.chainpoly import BIRKHOFF, REAL, _kept, _site_matrix
    unit = 1 if kind == BIRKHOFF else -1
    rows: dict = {}                     # pattern -> row
    cells_row, cells_at, coeffs = [], [], []
    for k, c in items:
        pat, at = [], 0
        for s, a, b in k:
            pat.append((s, a + b))
            at = at * (a + b + 1) + a
        cells_row.append(rows.setdefault(tuple(pat), len(rows)))
        cells_at.append(at)
        coeffs.append(c)
    by_shape: dict = {}
    for pat in rows:
        by_shape.setdefault(tuple(m for _, m in pat), []).append(pat)
    offset = np.empty(len(rows), np.intp)
    blocks, keys, size = [], [], 0
    for shape, pats in by_shape.items():
        width = math.prod(m + 1 for m in shape)
        blocks.append((shape, len(pats), size, size + len(pats) * width))
        for pat in pats:
            offset[rows[pat]] = size
            size += width
            keys.extend(itertools.product(
                *([(s, e, m - e) for e in range(m + 1)] for s, m in pat)))
    dense = np.zeros(size, complex)
    dense[offset[np.array(cells_row, np.intp)]
          + np.array(cells_at, np.intp)] = coeffs
    for shape, count, lo, hi in blocks:
        block = dense[lo:hi]
        for m in shape:
            block = (block.reshape(count, m + 1, -1).transpose(0, 2, 1)
                     .reshape(-1, m + 1) @ _site_matrix(m, unit))
        deg = sum(shape)
        scale = 0.5 ** (deg // 2) * (0.7071067811865476 if deg % 2 else 1.0)
        dense[lo:hi] = block.reshape(-1) * scale
    if kind == REAL:
        dense = dense.real
    kept = np.flatnonzero(_kept(dense))
    return seed_of(kind, n, dict(zip(map(keys.__getitem__, kept.tolist()),
                                     dense[kept].astype(complex).tolist())))


def dict_sectors(f) -> tuple[dict, dict]:
    """The terms of a Birkhoff seed with imbalance d = 0 and with d > 0."""
    kernel, half = {}, {}
    for k, c in f._terms.items():
        d = imbalance(k)
        if d == 0:
            kernel[k] = c
        elif d > 0:
            half[k] = c
    return kernel, half


def dict_to_real_sectors(n, kernel: dict, half: dict):
    """Re of the inverse image of kernel + 2 half, kernel first."""
    from kgchain.chainpoly import REAL
    return dict_convert(itertools.chain(
        kernel.items(), ((k, 2.0 * c) for k, c in half.items())), REAL, n)


def dict_mirror(f):
    """The reality map, key by key: i^deg conj(c) on the swapped key."""
    from kgchain.chainpoly import BIRKHOFF
    out = {}
    for k, c in f._terms.items():
        swapped, deg = [], 0
        for s, a, b in k:
            swapped.append((s, b, a))
            deg += a + b
        out[tuple(swapped)] = _IPOW[deg % 4] * c.conjugate()
    return seed_of(BIRKHOFF, f.n, out)


def dict_lie_omega(f, omega):
    """L_Omega key by key: c * (1j * omega * d) where d != 0."""
    from kgchain.chainpoly import BIRKHOFF
    acc = {}
    for k, c in f._terms.items():
        d = imbalance(k)
        if d:
            acc[k] = c * (1j * omega * d)
    return seed_of(BIRKHOFF, f.n, acc)


def dict_project(f, kernel: bool):
    """The terms with d = 0 (``kernel``) or d != 0, key by key."""
    from kgchain.chainpoly import BIRKHOFF
    return seed_of(BIRKHOFF, f.n, {k: c for k, c in f._terms.items()
                                   if (imbalance(k) == 0) == kernel})


def dict_partial(f, site, block):
    """The derivative in one variable, key by key, with the 1e-15 clean."""
    from kgchain.chainpoly import SeedPoly
    acc: dict = {}
    for k, c in f._terms.items():
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
    return SeedPoly(f.kind, f.n, acc)


def dict_decay_decompose(f):
    """The left-aligned terms grouped by covering-arc diameter, key by
    key, nearest first."""
    from kgchain.chainpoly import _arc, left_align
    out: dict = {}
    for k, c in left_align(f)._terms.items():
        out.setdefault(_arc([s for s, _, _ in k], f.n)[1], {})[k] = c
    return {m: seed_of(f.kind, f.n, t) for m, t in sorted(out.items())}


def dict_seed_from_dict(d: dict) -> dict:
    """The terms of a seed_to_dict dict, key by key, those on one key
    summed from 0.0."""
    from kgchain.chainpoly import Monomial
    acc: dict = {}
    for t in d["terms"]:
        key = Monomial(zip(t["sites"], t["xexp"], t["yexp"])).exps
        acc[key] = acc.get(key, 0.0) + complex(t["re"], t["im"])
    return acc


def dict_invert(terms: dict, omega: float) -> dict:
    """L_Omega^{-1} on Birkhoff terms {key: c} of nonzero imbalance, key
    by key, with Python's complex division."""
    out = {}
    for k, c in terms.items():
        d = sum(b - a for _, a, b in k)
        if d:
            out[k] = c / (1j * omega * d)
    return out


def dict_sum(polys, kind=None, n=None):
    """The sum of seeds key by key: each key where it first appears, its
    values added to 0.0 in the order given, then the 1e-15 clean with
    Python's abs.  The reference of :func:`kgchain.chainpoly.sum_polys`,
    which sums on lane words.  Seeds of another kind or chain size than
    the first raise ``CoordinateError``; no seeds give the zero of
    ``kind`` (real by default) on ``n`` sites."""
    from kgchain.chainpoly import PRUNE_REL, REAL, SeedPoly
    polys = list(polys)
    if not polys:
        return SeedPoly.zero(kind or REAL, n)
    first = polys[0]
    acc: dict = {}
    for p in polys:
        first._check_compatible(p)
        for k, v in p._terms.items():
            acc[k] = acc.get(k, 0.0) + v
    cut = PRUNE_REL * max(map(abs, acc.values()), default=0.0)
    out = {k: complex(v.real, 0.0) if first.kind == REAL else v
           for k, v in acc.items() if cut and not abs(v) < cut}
    return seed_of(first.kind, first.n, out)


def neumann_solve(psi, zeta0, omega, tol=1e-12, prune_rel=None):
    """The Neumann series of the homological solver on key dicts, term by
    term: every term is a dict, negated, inverted, normed and summed key by
    key, and each bracket takes its g from keys.  The reference of
    :func:`kgchain.normalform.solve_homological`, which keeps its terms on
    lane words; it returns chi and zeta as the solver does."""
    from kgchain import normalform
    from kgchain.chainpoly import (BIRKHOFF, REAL, SeedPoly, to_complex,
                                   _imbalance_sectors, _to_real_sectors)
    from kgchain.cyclic import seed_bracket

    def norm1(terms):
        acc = 0.0
        for c in terms.values():
            acc += abs(c)
        return acc

    zeta0_b = to_complex(zeta0)
    psi_b = to_complex(psi)
    kernel, half = _imbalance_sectors(psi_b)
    empty = SeedPoly.zero(BIRKHOFF, psi.n)
    zeta = _to_real_sectors(kernel, empty)
    if half.is_zero():
        return SeedPoly.zero(REAL, psi.n), zeta
    scale = norm1(psi_b._terms)
    term = dict_invert(half._terms, omega)
    floor = (normalform.NEUMANN_CUT * (prune_rel or 0.0)
             * max(map(abs, term.values()), default=0.0))
    terms = [term]
    prev_norm, growth = 2.0 * norm1(term), 0
    for _ in range(normalform.NEUMANN_MAX_TERMS):
        if prev_norm <= tol * scale:
            break
        g = seed_of(BIRKHOFF, psi.n, term)
        bracket = dict(seed_bracket(zeta0_b, g, prune_rel=prune_rel,
                                    floor=floor)._terms)
        term = {k: -c for k, c in dict_invert(bracket, omega).items()}
        terms.append(term)
        norm = 2.0 * norm1(term)
        growth = growth + 1 if norm > prev_norm else 0
        if growth >= 3:
            raise normalform.NeumannDivergenceError(0)
        prev_norm = norm
    else:
        raise normalform.NeumannDivergenceError(0, "did not settle")
    total = dict_sum(seed_of(BIRKHOFF, psi.n, t) for t in terms)
    return _to_real_sectors(empty, total), zeta


def unique_first_ids(x):
    """Where each distinct row of ``x`` first appears, in that order, and
    for each row the number of its distinct row in that order, by numpy's
    unique over rows.  The reference of :func:`kgchain.chainpoly.
    _first_ids`, which numbers the rows by sorting their lane words."""
    _, first, inv = np.unique(x, axis=0, return_index=True,
                              return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inv.reshape(-1)]


def coeff(p, exps) -> complex:
    """The coefficient of the seed ``p`` at the monomial ``exps``."""
    from kgchain.chainpoly import Monomial
    return p._terms.get(Monomial(exps).exps, 0.0)


def bits(poly) -> list:
    """The items of a seed in its key order, each value as the hex of its
    parts, so that a comparison sees every bit and the sign of a zero."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in poly._terms.items()]


def _unit(width: int, i: int) -> tuple[int, ...]:
    u = [0] * width
    u[i] = 1
    return tuple(u)


def p_resonant_projection(p: Poly, n: int) -> Poly:
    """Resonance-module projector for equal frequencies: keep terms whose
    angle wave-vector j - k sums to zero."""
    out: Poly = {}
    for k, v in p.items():
        if sum(k[:n]) - sum(k[n:]) == 0:
            out[k] = v
    return out


def single_oscillator_second_order() -> tuple[Poly, Poly, Poly]:
    """Classical one-oscillator normalization of (x^2+y^2)/2 + x^4/4.

    Returns (Z_1, Z_2-and-remainder check data) computed through the
    exponential of the adjoint action, exp(-L_chi) H, truncated at degree
    6: the degree-6 part equals the first remainder seed of an order-1
    normalization.  chi is obtained by diagonal division in complex
    coordinates, independently of the package's solver.
    """
    n = 1
    h0 = p_add(p_term((2, 0), 0.5), p_term((0, 2), 0.5))
    h1 = p_term((4, 0), 0.25)
    hb0 = p_birkhoff(h0, n)
    hb1 = p_birkhoff(h1, n)
    z1 = p_resonant_projection(hb1, n)
    rng_part = p_add(hb1, p_scale(z1, -1))
    chi = {k: v / (1j * (k[1] - k[0])) for k, v in rng_part.items()}
    chi = p_scale(chi, -1.0)   # L_{H0} chi = Z_1 - Psi_1
    # exp(-L_chi)(H0 + H1) up to degree 6
    h = p_add(hb0, hb1)
    total = dict(h)
    term = h
    fact = 1.0
    for p_ord in range(1, 4):
        term = p_scale(p_poisson(chi, term, n), -1.0)
        fact *= p_ord
        total = p_add(total, p_scale(term, 1.0 / fact))
    deg6 = {k: v for k, v in total.items() if sum(k) == 6}
    return z1, chi, deg6
