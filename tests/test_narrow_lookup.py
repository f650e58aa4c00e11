"""The orbit lookup is held in the narrowest unsigned dtype that holds the
orbit count, its "unset" mark: uint8 up to 255 orbits, uint16 past that.
Every consumer widens it before any arithmetic.  At q=9 n=2 (90 orbits,
uint8; 90 * 3 and 90^2 pass 255) and q=19 n=2 (380 orbits, uint16; 380^2
passes 65,535) each consumer must equal an int64 oracle: the restriction
counts and Levi tuple codes here, the orbit-oracle pair count in
test_cli.py and the Fourier gathers in test_invfun.py."""
from itertools import product

import numpy as np
import pytest

from glnq import linalg
from glnq.field import fq
from glnq.glmat import _embed_blocks, encode_matrices, unipotent_radical_elems
from glnq.hc import _block_lookup, restriction_matrix, split_tables
from glnq.orbits import enumerate_orbits, orbit_table_bruteforce

NARROW = [9, 19]


@pytest.mark.parametrize("q,n,dtype", [(2, 4, np.uint8), (3, 3, np.uint8), (9, 2, np.uint8),
                                       (13, 2, np.uint8), (16, 2, np.uint16),
                                       (17, 2, np.uint16), (19, 2, np.uint16)])
def test_lookup_dtype(q, n, dtype):
    # the brute-force class numbers of orbit-oracle are as narrow; cli's
    # pair count over both is TestVerifyFailures::test_orbit_oracle_counts_label_pairs
    ctx = fq(q)
    table = enumerate_orbits(n, ctx)
    assert table.lookup.dtype == dtype
    assert not table.lookup.flags.writeable
    assert int(table.lookup.max()) == len(table) - 1
    assert orbit_table_bruteforce(n, ctx)[0].dtype == dtype


@pytest.mark.parametrize("q", NARROW)
def test_restriction_matrix(q):
    # counts of x + u in each orbit, gathered through the lookup widened to
    # int64 one Levi tuple at a time
    ctx = fq(q)
    parts = (1, 1)
    tabs, table = split_tables(ctx, parts), enumerate_orbits(2, ctx)
    lookup = table.lookup.astype(np.int64)
    U = unipotent_radical_elems(ctx, parts)
    counts = np.zeros((len(tabs[0]) * len(tabs[1]), len(table)), dtype=np.int64)
    for row, idx in enumerate(product(*(range(len(t)) for t in tabs))):
        x = _embed_blocks([tab.reps[i].a for tab, i in zip(tabs, idx)], parts)
        np.add.at(counts[row], lookup[encode_matrices(ctx, ctx.ADD[x, U])], 1)
    assert linalg.mat_eq(restriction_matrix(ctx, parts), linalg.reduced(counts, len(U)))


@pytest.mark.parametrize("q", NARROW)
@pytest.mark.parametrize("parts", [(2, 2), (1, 2), (2, 1)])
def test_block_lookup(q, parts):
    # flat Levi tuple codes past the lookup's dtype: 90^2 and 380^2
    ctx = fq(q)
    n = sum(parts)
    tabs = split_tables(ctx, parts)
    sub = np.random.default_rng(q).integers(0, q, (500, n, n)).astype(np.uint8)
    want = np.zeros(len(sub), dtype=object)
    start = 0
    for p, tab in zip(parts, tabs):
        block = sub[:, start:start + p, start:start + p]
        labels = [int(tab.lookup[int(c)]) for c in encode_matrices(ctx, block)]
        want = want * len(tab) + np.array(labels, dtype=object)
        start += p
    got = _block_lookup(ctx, sub, (0, parts[0]), parts, tabs)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    if parts == (2, 2):
        assert int(got.max()) > np.iinfo(tabs[0].lookup.dtype).max
