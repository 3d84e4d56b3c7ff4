"""The inequality sweeps against case-by-case oracles and mpmath.

The entropy, split-entropy and Pinsker sweeps compute each margin as an
integer over one table of fixed-point log2 k, hoisting per batch what does
not depend on the last index; the oracles in ``conftest.py`` evaluate each
case term by term as its inequality states it, and must give the same
integer.  Every margin lies within its row's bound of mpmath, each row's
worst is mpmath's value of its nearest case rounded once, and the split
margin is exactly 0 at p = q and equals (1 - gamma) D(r || q) as integers.
The binomial sweep computes one width per pair {k, m - k}, and its margins
must agree with one binomial per case to the bit (``float.hex``).  The
conditional-codec sweep reads its random masks in bulk; they must equal the
bit-by-bit masks and leave the generator in the same state.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from conftest import (
    binomial_margins_oracle,
    mp_excess,
    mp_float,
    mp_pinsker,
    mp_split_slack,
    pinsker_units_oracle,
    split_slack_oracle,
    split_units_oracle,
)
from sgdcodec.harness import (
    SuiteRow,
    _binomial_margins,
    _exact_row,
    _excess_units,
    _pinsker_units,
    _random_mask,
    run_inequality_suite,
)
from sgdcodec.numerics import (
    DomainError,
    PreconditionError,
    _realizable_q,
    _split_units,
    verify_split_entropy,
)
from sgdcodec.stable import _WORK, _log2_e, _log2_table

L2E = _log2_e(_WORK)


def hexes(margins) -> list[str]:
    return [float(x).hex() for x in margins]


def suite_row(name: str, **sizes) -> SuiteRow:
    """The named row of ``run_inequality_suite`` at these sizes, the others
    at their smallest."""
    smallest = dict(entropy_points=1, split_side=1, pinsker_side=2, codec_instances=1)
    return next(row for row in run_inequality_suite(**{**smallest, **sizes}) if row.name == name)


def table(top: int) -> tuple[list[int], int]:
    """The logs of ``_log2_table(top, _WORK)`` and their largest error."""
    logs, errs = _log2_table(top, _WORK)
    return logs, max(errs)


def exact_sweep(sweep: str, n: int):
    """(margins by case, equality cases, den, bound, mpmath value at a case)
    of one exact sweep at size n: each margin from the sweep's kernel, checked
    against the term-by-term oracle, is an integer over den * 2**_WORK within
    bound of its true value; equalities (p = q) are not evaluated."""
    margins: dict = {}
    if sweep == "entropy":
        logs, err = table(n)
        ks = range(1, n + 1)
        margins.update(((k,), m) for k, m in zip(ks, _excess_units(logs, L2E, n, ks)))
        return margins, 0, n, (2 * err + 1) * n, lambda k: mp_excess(k, n)
    if sweep == "pinsker":
        logs, err = table(n)
        for a in range(1, n + 1):
            cs = [c for c in range(1, n) if c != a]
            units = _pinsker_units(logs, L2E, a, n, cs)
            assert units == [pinsker_units_oracle(logs, L2E, a, c, n) for c in cs]
            margins.update(((a, c), m) for c, m in zip(cs, units))
        bound = 2 * n * n * (err + 1)
        return margins, max(n - 1, 0), n * n, bound, lambda a, c: mp_pinsker(a, c, n)
    logs, err = table(n * n)
    for a in range(1, n + 1):
        for g in range(1, n + 1):
            cs = [c for c in _realizable_q(a, g, n) if c != a]
            units = _split_units(logs, a, g, n, cs)
            assert units == [split_units_oracle(logs, a, g, c, n) for c in cs]
            margins.update(((a, g, c), m) for c, m in zip(cs, units))
    return margins, n * n, n * n, 6 * n * n * err, lambda a, g, c: mp_split_slack(a, g, c, n)


def check_row(row: SuiteRow, sweep: str, n: int, sign: int, skipped: int = 0):
    """The row is the exact sweep's: its counts, the bound as threshold, every
    case clearing the bound on the claimed side, and as worst the nearest
    case's mpmath value rounded once (0.0 where every case is an equality)."""
    margins, zeros, den, bound, mp_case = exact_sweep(sweep, n)
    assert (row.cases, row.skipped) == (len(margins) + zeros, skipped)
    assert row.threshold == bound / (den << _WORK) and row.passed
    assert all(sign * m > bound for m in margins.values())
    if margins:
        near = min(margins, key=lambda case: sign * margins[case])
        assert row.worst == mp_float(mp_case(*near))
    else:
        assert row.worst == 0.0


@pytest.mark.parametrize("side", [2, 37, 100, 200])
def test_pinsker_margins_match_the_per_case_oracle(side):
    check_row(suite_row("pinsker-bernoulli", pinsker_side=side), "pinsker", side, 1)


@pytest.mark.parametrize("side", [1, 13, 20, 50])
def test_split_margins_match_the_per_case_oracle(side):
    row = suite_row("split-entropy-drop", split_side=side)
    check_row(row, "split", side, 1, side**3 - row.cases)
    assert row.skipped == side**3 - sum(len(_realizable_q(a, g, side))
                                        for a in range(1, side + 1) for g in range(1, side + 1))


@pytest.mark.parametrize("points", [1, 2, 97, 2000, 10000])
def test_entropy_row_is_the_exact_sweep_with_its_nearest_case_rounded_once(points):
    check_row(suite_row("entropy-vs-plog2ep", entropy_points=points), "entropy", points, -1)


@pytest.mark.parametrize("sweep, side", [("split", 7), ("split", 13), ("pinsker", 37),
                                         ("entropy", 200)])
def test_every_margin_lies_within_its_row_bound_of_mpmath(sweep, side):
    margins, _, den, bound, mp_case = exact_sweep(sweep, side)
    for case, m in margins.items():
        x = mp_case(*case)
        with mpmath.workprec(1000):
            assert abs(m - x * (den << _WORK)) <= bound, case


def test_split_kernel_is_exactly_zero_at_p_equal_q():
    # the table is additive over prime factors, so every log term cancels
    for n in range(1, 21):
        logs, _ = table(n * n)
        for a in range(n + 1):
            assert all(_split_units(logs, a, g, n, [a]) == [0] for g in range(n + 1)), (a, n)


def test_split_kernel_equals_the_divergence_form_as_integers():
    # n**2 (1 - gamma) D(r || q), r = (q - p gamma) / (1 - gamma), is
    # (u - A) log2((u - A) / (c (n - g))) + (v - B) log2((v - B) / ((n - c) (n - g)))
    for n in range(1, 21):
        logs, _ = table(n * n)
        for a in range(n + 1):
            for g in range(n + 1):
                for c in _realizable_q(a, g, n):
                    r, s = c * n - a * g, (n - c) * n - (n - a) * g
                    form = (r * (logs[r] - logs[c] - logs[n - g])
                            + s * (logs[s] - logs[n - c] - logs[n - g]))
                    assert _split_units(logs, a, g, n, [c]) == [form], (a, g, c, n)


@pytest.mark.parametrize("max_m", [16 << i for i in range(9)])
def test_binomial_margins_match_the_per_case_oracle(max_m):
    # the suite sweeps max_m = 4096; its row is the one of those margins
    expect = binomial_margins_oracle(max_m)
    assert hexes(_binomial_margins(max_m)) == hexes(expect)
    row = SuiteRow.of("binomial-vs-entropy", _binomial_margins(max_m), 0.0)
    assert (row.cases, row.worst.hex()) == (len(expect), float(max(expect)).hex())
    if max_m == 4096:
        assert suite_row("binomial-vs-entropy") == row


@pytest.mark.parametrize("at_most", [True, False])
def test_a_suite_row_takes_its_worst_margin_in_the_verdict_direction(at_most):
    # a float row's margins must each be at most its threshold: worst is the max
    for threshold in (-3.0, -2.0, 0.0, 3.0, 4.0):
        row = SuiteRow.of("row", [-2.0, 0.5, 3], threshold)
        assert row == SuiteRow("row", 3, 0, 3.0, threshold, 3.0 <= threshold)
        assert type(row.worst) is float
    with pytest.raises(DomainError, match="row: the sizes leave no case"):
        SuiteRow.of("row", [], 0.0)
    # an exact row claims <= 0 (at most 0) or >= 0: worst is the margin
    # nearest 0 from that side, here m log2 e for the integer m
    sign = -1 if at_most else 1
    for ms, nearest in (([-2, 5, 3], 5 if at_most else -2), ([sign, 7 * sign], sign)):
        row = _exact_row("row", lambda log, l2e, cs: [m * l2e for m in cs], [(ms,)],
                         ([], 0, L2E), 1, lambda e: e, sign, 1, 5)
        with mpmath.workprec(200):
            worst = mp_float(nearest * mpmath.log(mpmath.e, 2))
        assert row == SuiteRow("row", len(ms) + 1, 4 - len(ms), worst, 0.0, sign * nearest > 0)
    with pytest.raises(DomainError, match="row: the sizes leave no case"):
        _exact_row("row", None, [], ([], 0, L2E), 0, lambda e: e, sign)


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
                    expect = split_slack_oracle(p, gamma, q)
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
