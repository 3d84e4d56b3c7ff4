"""Dense rows' dataset-wide passes: the sweep's lanes, the ``dataset.tsv``
text and the max |x|^2 bound, checked against their entry-by-entry and
row-by-row oracles, and the text of every family pinned by digest."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import dense_text, lanes_oracle, manual_dataset, max_sq_norm_oracle
from sgdcodec.model import (
    Dataset,
    GeneratorSpec,
    Model,
    _dot,
    _max_sq_norm,
    _sparse_pairs,
    correctness_mask,
    generate_dataset,
)
from sgdcodec.numerics import FixedVector, GridSpec


def check_against_the_oracles(ds: Dataset, w: tuple[int, ...]) -> None:
    assert ds._lanes == lanes_oracle(ds)
    assert ds.to_text() == dense_text(ds)
    assert _max_sq_norm(ds.elements) == max_sq_norm_oracle(ds.elements)
    back = Dataset.from_text(ds.to_text(), ds.grid)
    assert back.elements == ds.elements
    assert back.to_text() == ds.to_text()
    m = Model("logistic-linear", FixedVector(w, ds.grid), ds.dim)
    expect = sum(((_dot(w, el.features.raws) > 0) == el.label) << el.eid for el in ds.elements)
    assert correctness_mask(m, ds) == expect


@st.composite
def dense_cases(draw):
    """A dense dataset and a weight vector on one grid.  At scale 57 most
    lanes are wider than 8 bytes, so the per-entry packing runs too."""
    scale = draw(st.sampled_from((0, 6, 16, 57)))
    grid = GridSpec(scale=scale, clip=draw(st.sampled_from((1, 4, 64))))
    lo, hi = grid.raw_min, grid.raw_max
    edges = [v for v in (0, -1, 1, lo, hi) if lo <= v <= hi]
    raws = st.one_of(st.sampled_from(edges), st.integers(lo, hi))
    dim = draw(st.one_of(st.integers(1, 7), st.integers(8, 10)))
    n = draw(st.integers(1, 64))
    row = st.tuples(st.lists(raws, min_size=dim, max_size=dim), st.integers(0, 1))
    ds = manual_dataset(grid, draw(st.lists(row, min_size=n, max_size=n)))
    assume(_sparse_pairs(ds.elements, dim) is None)
    return ds, tuple(draw(st.lists(raws, min_size=dim, max_size=dim)))


@settings(max_examples=100, deadline=None)
@given(dense_cases())
def test_dense_passes_equal_the_entry_by_entry_oracles(case):
    check_against_the_oracles(*case)


@pytest.mark.parametrize("wide", (False, True))
@pytest.mark.parametrize("dim", (1, 9))
def test_lanes_at_the_eight_byte_edge(wide, dim):
    # the peak at which dim * peak * |raw_min| reaches 2**62, the first
    # product that needs 9-byte lanes (packed entry by entry), and the peak
    # below it, whose 8-byte lanes struct packs; the peak entry is negative
    grid = GridSpec(scale=31, clip=1)
    peak = -(-(1 << 62) // (dim * -grid.raw_min)) - (not wide)
    rows = [([-peak] + [-1] * (dim - 1), 1), ([0] * dim, 0), ([peak - 5] * dim, 0)]
    ds = manual_dataset(grid, rows)
    assert ds._lanes[0] == (9 if wide else 8)
    check_against_the_oracles(ds, (grid.raw_min,) * dim)


# sha256 of ``to_text()`` for each family on two grids, computed with the
# entry-by-entry text kernels; ``random-labels-d9`` has dense rows of 9
# features, ``one-hot`` sparse rows
TEXT_SPECS = {
    "two-gaussians": GeneratorSpec("two-gaussians", n=24, dim=3, seed=5),
    "separable-margin": GeneratorSpec(
        "separable-margin", n=24, dim=3, seed=5, margin=Fraction(1, 8)
    ),
    "random-labels": GeneratorSpec("random-labels", n=24, dim=3, seed=5),
    "random-labels-d9": GeneratorSpec("random-labels", n=16, dim=9, seed=5),
    "one-hot": GeneratorSpec("one-hot", n=24, dim=24, seed=5),
}
TEXT_GRIDS = {
    "scale6-clip4": GridSpec(scale=6, clip=4),
    "scale16-clip64": GridSpec(scale=16, clip=64),
}
TEXT_DIGESTS = {
    "two-gaussians/scale6-clip4": "cb222460f2958b9dcd6da572fa3b2fc0ed0105430420ae29fb0949c91c7cfe6d",
    "separable-margin/scale6-clip4": "ea1082e2877c70f36b5bf238d1312e2c28c95334c3aa607471c3cbe3826bcda0",
    "random-labels/scale6-clip4": "e49949919fe912b472bc0743081d53c7ab6f034d79ac22ffbd31777fdaaed675",
    "random-labels-d9/scale6-clip4": "6130bbe0adfa58d289b808b56623b3ef7719205d6843477dea125e649d9bdebe",
    "one-hot/scale6-clip4": "6e8fd710b14ecd0b7577d19d4c1cf33fe9b9da1d7300fb52db2486d1278c2ec6",
    "two-gaussians/scale16-clip64": "1b7d0730c545df537304a412eeaaf467f3c7a6c25fd50fe9f1933f8f8e3cbe00",
    "separable-margin/scale16-clip64": "ed545b6bdd305f24499a7822cd1c4de2f57355af8f654460945baa0447541aca",
    "random-labels/scale16-clip64": "a06a1465d8e791bdcbf4f99710f081e8acdf8bc7a2e762a96606bc7d1707d8fd",
    "random-labels-d9/scale16-clip64": "c5826629a9eaff267e0e6f8aa958f63a647b730e6d02dd250635cd7df32492c9",
    "one-hot/scale16-clip64": "0777bd4b124efc9232ffea163592c395ca0170eece145147b5fdd7d67a00b2d0",
}


@pytest.mark.parametrize("key", TEXT_DIGESTS)
def test_dataset_text_of_every_family_is_pinned(key):
    family, grid = key.split("/")
    text = generate_dataset(TEXT_SPECS[family], TEXT_GRIDS[grid]).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_DIGESTS[key]
