import numpy as np
import pytest

from kgchain import SeedPoly


def random_seed_poly(rng, n, max_sites=3, terms=4, max_degree=4,
                     homogeneous=None):
    """Random short-range seed with O(1) coefficients."""
    p = SeedPoly.zero(n=n)
    for _ in range(terms):
        ents = []
        for _ in range(int(rng.integers(1, 3))):
            s = int(rng.integers(0, max_sites))
            a = int(rng.integers(0, 3))
            b = int(rng.integers(0, 2))
            if a + b:
                ents.append((s, a, b))
        deg = sum(a + b for _, a, b in ents)
        if not ents or deg > max_degree:
            continue
        if homogeneous is not None and deg != homogeneous:
            continue
        p = p + SeedPoly.term(ents, float(rng.uniform(-1, 1)), n=n)
    return p


def random_homogeneous(rng, degree, n, max_sites=3, terms=4):
    """Random homogeneous seed of the exact requested degree."""
    p = SeedPoly.zero(n=n)
    guard = 0
    while p.is_zero() or p.max_degree() != degree:
        guard += 1
        if guard > 200:
            raise RuntimeError("could not draw a homogeneous seed")
        p = SeedPoly.zero(n=n)
        for _ in range(terms):
            sites = [int(rng.integers(0, max_sites))
                     for _ in range(degree)]
            blocks = [int(rng.integers(0, 2)) for _ in range(degree)]
            ents = {}
            for s, blk in zip(sites, blocks):
                key = ents.setdefault(s, [0, 0])
                key[blk] += 1
            p = p + SeedPoly.term([(s, ab[0], ab[1])
                                   for s, ab in ents.items()],
                                  float(rng.uniform(-1, 1)), n=n)
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def built(monkeypatch):
    """A list that gets an item at each call of ``chainpoly._keys``."""
    from kgchain import chainpoly
    calls = []
    keys = chainpoly._keys
    monkeypatch.setattr(chainpoly, "_keys",
                        lambda *args: calls.append(1) or keys(*args))
    return calls
