"""The Pinsker, split-entropy and binomial sweeps against case-by-case oracles.

Each sweep computes its loop invariants once: a penalty table keyed by
|a - c|, one D(p || q) row per p, one binomial width per pair {k, m - k}.
The oracles in ``conftest.py`` evaluate every case on its own, and every
per-case margin must agree to the bit (``float.hex``), not only the worst.
The conditional-codec sweep reads its random masks in bulk; they must equal
the bit-by-bit masks and leave the generator in the same state.
"""

from __future__ import annotations

import random

import pytest

from conftest import (
    binomial_margins_oracle,
    pinsker_margins_oracle,
    split_margins_oracle,
    split_slack_oracle,
)
from sgdcodec.harness import (
    _binomial_margins,
    _random_mask,
    _pinsker_margins,
    _split_margins,
    _sweep_entropy_binomial,
    _sweep_pinsker,
    _sweep_split_entropy,
)
from sgdcodec.numerics import PreconditionError, _realizable_q, _split_slack


def hexes(margins) -> list[str]:
    return [float(x).hex() for x in margins]


@pytest.mark.parametrize("side", [2, 37, 100, 200])
def test_pinsker_margins_match_the_per_case_oracle(side):
    expect = pinsker_margins_oracle(side)
    assert hexes(_pinsker_margins(side)) == hexes(expect)
    row = _sweep_pinsker(side)
    assert (row.cases, row.worst.hex()) == (len(expect), min(expect).hex())


@pytest.mark.parametrize("side", [1, 13, 20, 50])
def test_split_margins_match_the_per_case_oracle(side):
    expect = split_margins_oracle(side)
    assert hexes(_split_margins(side)) == hexes(expect)
    row = _sweep_split_entropy(side)
    assert (row.cases, row.skipped) == (len(expect), side**3 - len(expect))
    assert row.worst.hex() == min(expect).hex()


@pytest.mark.parametrize("max_m", [16 << i for i in range(9)])
def test_binomial_margins_match_the_per_case_oracle(max_m):
    expect = binomial_margins_oracle(max_m)
    assert hexes(_binomial_margins(max_m)) == hexes(expect)
    row = _sweep_entropy_binomial(max_m)
    assert (row.cases, row.worst.hex()) == (len(expect), float(max(expect)).hex())


def test_split_slack_matches_the_oracle_on_every_numerator_triple():
    # boundary numerators included: at g = 0 a realizable q may sit on 0 or 1,
    # where D(p || q) is infinite, and the slack is still 0
    n = 7
    for a in range(n + 1):
        for g in range(n + 1):
            realizable = _realizable_q(a, g, n)
            for c in range(n + 1):
                if c in realizable:
                    expect = split_slack_oracle(a, g, c, n)
                    assert _split_slack(a, g, c, n).hex() == expect.hex()
                else:
                    with pytest.raises(PreconditionError):
                        _split_slack(a, g, c, n)


@pytest.mark.parametrize("m", [4, 5, 31, 199])
@pytest.mark.parametrize("seed", [0, 7, 2024, 987654321])
def test_bulk_mask_matches_the_bit_by_bit_mask(m, seed):
    bulk, bitwise = random.Random(seed), random.Random(seed)
    for _ in range(3):
        mask = _random_mask(bulk, m)
        assert mask == sum(bitwise.getrandbits(1) << e for e in range(m))
        assert bulk.getstate() == bitwise.getstate()
