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
from fractions import Fraction

import pytest

from conftest import (
    binomial_margins_oracle,
    pinsker_margins_oracle,
    split_margins_oracle,
    split_slack_oracle,
)
from sgdcodec.harness import (
    SuiteRow,
    _binomial_margins,
    _random_mask,
    _pinsker_margins,
    _split_margins,
    run_inequality_suite,
)
from sgdcodec.numerics import (
    DomainError,
    PreconditionError,
    _realizable_q,
    verify_split_entropy,
)


def hexes(margins) -> list[str]:
    return [float(x).hex() for x in margins]


def suite_row(name: str, **sizes) -> SuiteRow:
    """The named row of ``run_inequality_suite`` at these sizes, the others
    at their smallest."""
    smallest = dict(entropy_points=1, split_side=1, pinsker_side=2, codec_instances=1)
    return next(row for row in run_inequality_suite(**{**smallest, **sizes}) if row.name == name)


@pytest.mark.parametrize("side", [2, 37, 100, 200])
def test_pinsker_margins_match_the_per_case_oracle(side):
    expect = pinsker_margins_oracle(side)
    assert hexes(_pinsker_margins(side)) == hexes(expect)
    row = suite_row("pinsker-bernoulli", pinsker_side=side)
    assert (row.cases, row.skipped, row.worst.hex()) == (len(expect), 0, min(expect).hex())
    assert (row.threshold, row.passed) == (-1e-12, True)


@pytest.mark.parametrize("side", [1, 13, 20, 50])
def test_split_margins_match_the_per_case_oracle(side):
    expect = split_margins_oracle(side)
    assert hexes(_split_margins(side)) == hexes(expect)
    row = suite_row("split-entropy-drop", split_side=side)
    assert (row.cases, row.skipped) == (len(expect), side**3 - len(expect))
    assert row.worst.hex() == min(expect).hex()
    assert (row.threshold, row.passed) == (-1e-12, True)


@pytest.mark.parametrize("max_m", [16 << i for i in range(9)])
def test_binomial_margins_match_the_per_case_oracle(max_m):
    # the suite sweeps max_m = 4096; its row is the one of those margins
    expect = binomial_margins_oracle(max_m)
    assert hexes(_binomial_margins(max_m)) == hexes(expect)
    row = SuiteRow.of("binomial-vs-entropy", _binomial_margins(max_m), 0.0, True)
    assert (row.cases, row.worst.hex()) == (len(expect), float(max(expect)).hex())
    if max_m == 4096:
        assert suite_row("binomial-vs-entropy") == row


@pytest.mark.parametrize("at_most", [True, False])
def test_a_suite_row_takes_its_worst_margin_in_the_verdict_direction(at_most):
    margins = [-2.0, 0.5, 3]
    worst = 3.0 if at_most else -2.0
    for threshold in (-3.0, -2.0, 0.0, 3.0, 4.0):
        row = SuiteRow.of("row", margins, threshold, at_most, skipped=5)
        passed = worst <= threshold if at_most else worst >= threshold
        assert row == SuiteRow("row", 3, 5, worst, threshold, passed)
        assert type(row.worst) is float
    with pytest.raises(DomainError, match="row: the sizes leave no case"):
        SuiteRow.of("row", [], 0.0, at_most)


def test_split_slack_matches_the_oracle_on_every_numerator_triple():
    # boundary numerators included: at g = 0 a realizable q may sit on 0 or 1,
    # where D(p || q) is infinite, and the slack is still 0
    n = 7
    for a in range(n + 1):
        for g in range(n + 1):
            realizable = _realizable_q(a, g, n)
            for c in range(n + 1):
                p, gamma, q = Fraction(a, n), Fraction(g, n), Fraction(c, n)
                if c in realizable:
                    expect = split_slack_oracle(a, g, c, n)
                    assert verify_split_entropy(p, gamma, q).hex() == expect.hex()
                else:
                    with pytest.raises(PreconditionError, match="^split not realizable"):
                        verify_split_entropy(p, gamma, q)


@pytest.mark.parametrize("m", [4, 5, 31, 199])
@pytest.mark.parametrize("seed", [0, 7, 2024, 987654321])
def test_bulk_mask_matches_the_bit_by_bit_mask(m, seed):
    bulk, bitwise = random.Random(seed), random.Random(seed)
    for _ in range(3):
        mask = _random_mask(bulk, m)
        assert mask == sum(bitwise.getrandbits(1) << e for e in range(m))
        assert bulk.getstate() == bitwise.getstate()
