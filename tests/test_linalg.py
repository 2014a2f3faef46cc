import random
from fractions import Fraction

import pytest

from schurq import linalg
from schurq.algebra import Polynomial
from schurq.linalg import InconsistentSystem, coordinates, determinant, nullspace, rank, solve


def random_matrix(rng, nrows, ncols):
    entries = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), 5]
    return [[Fraction(rng.choice(entries)) for _ in range(ncols)] for _ in range(nrows)]


def apply(rows, v):
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


def matrices(count=200, max_size=6, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_matrix(rng, rng.randint(1, max_size), rng.randint(1, max_size))


class TestSolve:
    def test_round_trip(self):
        rng = random.Random(3)
        checked = 0
        for rows in matrices():
            if rank(rows) < len(rows[0]):
                continue
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in rows[0]]
            assert solve(rows, apply(rows, x)) == x
            checked += 1
        assert checked > 20

    def test_overdetermined_consistent(self):
        rows = [[1, 0], [0, 1], [1, 1]]
        assert solve(rows, [2, 3, 5]) == [2, 3]

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystem):
            solve([[1, 0], [0, 1], [1, 1]], [2, 3, 6])

    def test_underdetermined_raises(self):
        with pytest.raises(ValueError, match="underdetermined"):
            solve([[1, 1]], [2])
        with pytest.raises(ValueError, match="underdetermined"):
            solve([[1, 2], [2, 4]], [1, 2])

    def test_several_right_hand_sides(self):
        rows = [[1, 0], [0, 1], [1, 1]]
        assert solve(rows, [[2, 1], [3, 0], [5, 1]]) == [[2, 1], [3, 0]]
        with pytest.raises(InconsistentSystem):
            solve(rows, [[2, 1], [3, 0], [5, 2]])  # only the second column is inconsistent

    def test_several_right_hand_sides_match_one_by_one(self):
        rng = random.Random(5)
        checked = 0
        for rows in matrices():
            if rank(rows) < len(rows[0]):
                continue
            xs = [[Fraction(rng.randint(-5, 5)) for _ in rows[0]] for _ in range(3)]
            columns = [apply(rows, x) for x in xs]
            got = solve(rows, [list(b) for b in zip(*columns)])
            assert [list(c) for c in zip(*got)] == [solve(rows, b) for b in columns] == xs
            checked += 1
        assert checked > 20

    def test_inputs_untouched(self):
        rows = [[0, 1], [1, 0]]
        rhs = [1, 2]
        assert solve(rows, rhs) == [2, 1]
        assert rows == [[0, 1], [1, 0]] and rhs == [1, 2]


class TestCoordinates:
    # x1 + x2 and x1 - x2 span the linear forms in two variables
    basis = [Polynomial(2, {(1, 0): 1, (0, 1): 1}), Polynomial(2, {(1, 0): 1, (0, 1): -1})]

    def test_target_in_span(self):
        target = Polynomial(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})
        assert coordinates(self.basis, target) == [Fraction(7, 4), Fraction(5, 4)]

    def test_target_outside_span_raises(self):
        # x1^2 is a monomial of no basis element: its row must still be checked
        target = self.basis[0] + Polynomial.monomial(2, (2, 0))
        with pytest.raises(InconsistentSystem):
            coordinates(self.basis, target)

    def test_several_targets_in_one_elimination(self, monkeypatch):
        targets = [Polynomial(2, {(1, 0): 3, (0, 1): Fraction(1, 2)}), self.basis[1], Polynomial.zero(2)]
        calls = []
        original = linalg._rref

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(linalg, "_rref", counted)
        matrix = coordinates(self.basis, targets)
        assert len(calls) == 1
        # column c holds the coordinates of targets[c]
        assert matrix == [[Fraction(7, 4), 0, 0], [Fraction(5, 4), 1, 0]]
        leaky = [*targets, self.basis[0] + Polynomial.monomial(2, (2, 0))]
        with pytest.raises(InconsistentSystem):
            coordinates(self.basis, leaky)

    def test_dependent_basis_raises(self):
        basis = [*self.basis, self.basis[0].scale(2)]
        with pytest.raises(ValueError, match="underdetermined"):
            coordinates(basis, self.basis[1])


class TestRankNullspace:
    def test_rank_nullity(self):
        for rows in matrices():
            kernel = nullspace(rows)
            assert rank(rows) + len(kernel) == len(rows[0])
            for v in kernel:
                assert all(c == 0 for c in apply(rows, v))

    def test_known_rank(self):
        assert rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([]) == 0


class TestDeterminant:
    def test_known_values(self):
        assert determinant([[2, 1], [1, 3]]) == 5
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[1, 2], [2, 4]]) == 0
        assert determinant([]) == 1

    def test_non_square_rejected(self):
        for rows in ([[1], [2]], [[1, 2]], [[1, 2], [3]]):
            with pytest.raises(ValueError, match="not square"):
                determinant(rows)

    def test_row_swap_flips_sign(self):
        rng = random.Random(7)
        for _ in range(100):
            size = rng.randint(2, 6)
            rows = random_matrix(rng, size, size)
            a, b = rng.sample(range(size), 2)
            swapped = list(rows)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert determinant(swapped) == -determinant(rows)

    def test_zero_iff_rank_deficient(self):
        rng = random.Random(9)
        for _ in range(100):
            size = rng.randint(1, 5)
            rows = random_matrix(rng, size, size)
            assert (determinant(rows) == 0) == (rank(rows) < size)


class TestInputChecks:
    def test_floats_refused(self):
        for call in (
            lambda: solve([[0.1]], [1]),
            lambda: solve([[1]], [0.1]),
            lambda: rank([[0.5, 1]]),
            lambda: nullspace([[1, 0.5]]),
            lambda: determinant([[0.25]]),
        ):
            with pytest.raises(TypeError):
                call()

    def test_rhs_length_must_match_rows(self):
        with pytest.raises(ValueError):
            solve([[1], [2]], [1])
        with pytest.raises(ValueError):
            solve([[1], [2]], [1, 2, 0])
        assert solve([[1], [2]], [1, 2]) == [1]
