import itertools
import math

import numpy as np
import pytest

from rareunion import FinitePatternModel, ModelSpecError
from rareunion import events as ev


def all_patterns(d):
    return list(itertools.product([False, True], repeat=d))


class TestCountAndBinomial:
    @pytest.mark.parametrize("count,order,expected", [(2, 2, 1), (1, 2, 0), (5, 2, 10)])
    def test_binomial_term_examples(self, count, order, expected):
        assert ev.binomial_term(count, order) == expected

    def test_binomial_term_is_subset_count(self):
        # brute force: number of order-i subsets of the occurred events
        pattern = (True, True, False, True, True, True)
        hits = [k for k, b in enumerate(pattern) if b]
        for i in range(7):
            subsets = sum(
                1 for combo in itertools.combinations(range(6), i) if set(combo) <= set(hits)
            )
            assert subsets == ev.binomial_term(len(hits), i)

    def test_subset_count_identity_exhaustive(self):
        for d in range(1, 7):
            for pattern in all_patterns(d):
                e = sum(pattern)
                for i in range(d + 1):
                    subsets = sum(
                        1
                        for combo in itertools.combinations(range(d), i)
                        if all(pattern[k] for k in combo)
                    )
                    assert subsets == ev.binomial_term(e, i)

    def test_subset_count_identity_random_high_dim(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            d = int(rng.integers(1, 13))
            pattern = rng.random(d) < rng.random()
            e = int(pattern.sum())
            i = int(rng.integers(0, d + 1))
            subsets = math.comb(e, i) if e >= i else 0
            assert subsets == ev.binomial_term(e, i)


class TestExceedanceCount:
    """The count every count-based value reads equals the boolean row sum
    exactly, including past 255 columns, where a byte accumulator wraps."""

    @pytest.mark.parametrize("d", [1, 4, 8, 64, 65, 255, 256, 300])
    def test_equals_the_row_sum(self, d):
        rng = np.random.default_rng(d)
        patterns = rng.random((600, d)) < rng.random((600, 1))
        patterns[:5] = True
        patterns[5] = False
        # the array, a column slice, every other column and every third row
        for p in (patterns, patterns[:, d // 2:], patterns[:, ::2], patterns[::3]):
            got = ev.exceedance_count(p)
            assert got.dtype.kind == "u" and np.array_equal(got, p.sum(axis=1))
        assert (ev.exceedance_count(patterns[:5]) == d).all()

    def test_rows_of_a_finite_model(self):
        model = FinitePatternModel(np.full(1 << 6, 1.0 / (1 << 6)))
        p = model.patterns[model._given((1, 4))]
        assert p.shape == (16, 6) and np.array_equal(ev.exceedance_count(p), p.sum(axis=1))


class TestResidualTerm:
    @pytest.mark.parametrize("count,order,expected", [(3, 1, -2), (3, 2, 1), (1, 1, 0)])
    def test_examples(self, count, order, expected):
        assert ev.residual_term(count, order) == expected

    def test_alternating_complement_identity(self):
        # sum_{i=0}^{E} (-1)^i C(E,i) = 0 lets the head be written as minus the tail
        for e in range(31):
            for n in range(0, e):
                head = ev.residual_term(e, n)
                tail = -sum((-1) ** i * math.comb(e, i) for i in range(n + 1, e + 1))
                assert head == tail

    def test_table_matches_scalar(self):
        for n in range(4):
            for d in range(1, 21):
                table = ev.residual_term_table(d, n)
                assert table.shape == (d + 1,)
                for e in range(d + 1):
                    assert table[e] == ev.residual_term(e, n)

    def test_tables_equal_the_alternating_sum(self):
        # the closed form against the sum it replaces, as exact integers
        for n in range(5):
            table = ev.payoff_alternating_table(79, n)
            for e in range(80):
                direct = sum((-1) ** i * math.comb(e, i) for i in range(n + 1))
                assert table[e] == float(direct)
                assert ev.residual_term(e, n) == (direct if e > n else 0)

    def test_payoff_table_has_no_indicator(self):
        table = ev.payoff_alternating_table(6, 1)
        assert list(table) == [1 - e for e in range(7)]


class TestPartition:
    def test_three_events_first_order_cells(self):
        cells = ev.partition_cells(3, 1)
        got = {(c.events, c.blocked) for c in cells}
        assert got == {((0,), ()), ((1,), (0,)), ((2,), (0, 1))}

    def test_two_events_single_pair_cell(self):
        cells = ev.partition_cells(2, 2)
        assert len(cells) == 1
        assert cells[0].events == (0, 1)
        assert cells[0].blocked == ()

    def test_cell_for_pattern_example(self):
        # events 0, 2, 3 occurred; the first two in index order are {0, 2}
        cell = ev.cell_for_pattern((True, False, True, True), 2)
        assert cell.events == (0, 2)
        assert cell.blocked == (1,)
        # cross-check by direct membership over all six cells
        containing = [
            c
            for c in ev.partition_cells(4, 2)
            if c.contains(np.array([[True, False, True, True]]))[0]
        ]
        assert containing == [cell]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_disjoint_and_covering(self, d):
        patterns = np.array(all_patterns(d))
        counts = patterns.sum(axis=1)
        for m in range(1, d + 1):
            cells = ev.partition_cells(d, m)
            assert len(cells) == math.comb(d, m)
            membership = np.stack([c.contains(patterns) for c in cells])
            hits = membership.sum(axis=0)
            assert (hits[counts >= m] == 1).all()
            assert (hits[counts < m] == 0).all()
            # the first-m-hits construction names the same containing cell
            for pattern, row in zip(patterns, membership.T):
                cell = ev.cell_for_pattern(pattern, m)
                assert cell == (cells[int(np.argmax(row))] if row.any() else None)


class TestEnumeration:
    def test_lexicographic_order(self):
        pats = ev.enumerate_patterns(3)
        assert pats.shape == (8, 3)
        assert list(pats[0]) == [False, False, False]
        assert list(pats[1]) == [False, False, True]
        assert list(pats[4]) == [True, False, False]

    def test_read_only(self):
        pats = ev.enumerate_patterns(4)
        with pytest.raises(ValueError):
            pats[0, 0] = True


class _PmfHolder:
    def __init__(self, pmf):
        self.pmf = np.asarray(pmf, dtype=float)
        self.d = int(round(math.log2(self.pmf.size)))


class TestBruteForce:
    def test_uniform_two_events(self):
        model = FinitePatternModel([0.25] * 4)
        assert ev.brute_force_union(model) == pytest.approx(0.75, abs=0)

    def test_independent_bits(self):
        p = 0.1
        pmf = []
        for pattern in all_patterns(3):
            pr = 1.0
            for b in pattern:
                pr *= p if b else 1 - p
            pmf.append(pr)
        # enumeration order must match: itertools.product is lexicographic too
        model = FinitePatternModel(pmf)
        assert ev.brute_force_union(model) == pytest.approx(1 - 0.9**3, rel=1e-14)

    def test_single_event(self):
        model = FinitePatternModel([0.7, 0.3])
        assert ev.brute_force_union(model) == pytest.approx(0.3, abs=0)

    def test_unnormalized_pmf_rejected(self):
        # only a FinitePatternModel, which validates its pmf, is enumerated
        for pmf in ([0.5, 0.6], [0.5, 0.5]):
            with pytest.raises(ModelSpecError):
                ev.brute_force_union(_PmfHolder(pmf))
        with pytest.raises(ModelSpecError):
            FinitePatternModel([0.5, 0.6])

    def test_tail_expectation_with_payoff(self):
        pmf = [0.1, 0.2, 0.3, 0.4]
        model = FinitePatternModel(pmf)

        def payoff(x, patterns):
            return patterns.sum(axis=1).astype(float) ** 2

        # E[E^2 1{E>=1}] = 0.2*1 + 0.3*1 + 0.4*4
        assert ev.brute_force_tail_expectation(model, 1, payoff) == pytest.approx(2.1, rel=1e-14)
        # E[1{E>=2}] = 0.4
        assert ev.brute_force_tail_expectation(model, 2) == pytest.approx(0.4, abs=0)

    @pytest.mark.parametrize("n", [0, np.int64(2), 3])
    def test_tail_expectation_reads_integral_orders(self, n):
        # E[1{E >= n}] = 1, 0.4 and 0 on two events; n = 0 is the whole mass
        model = FinitePatternModel([0.1, 0.2, 0.3, 0.4])
        assert ev.brute_force_tail_expectation(model, n) == {0: 1.0, 2: 0.4, 3: 0.0}[int(n)]

    def test_union_is_the_tail_expectation_at_one(self):
        model = FinitePatternModel(np.random.default_rng(5).dirichlet(np.ones(32)))
        assert ev.brute_force_union(model) == ev.brute_force_tail_expectation(model, 1)
