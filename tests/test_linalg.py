import random
from fractions import Fraction

import pytest

from schurq import linalg, spectra
from schurq.algebra import Polynomial
from schurq.linalg import InconsistentSystem, coordinates, nullspace, solve

from oracles import determinant, rank, reference_rref


def random_matrix(rng, nrows, ncols):
    entries = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), 5]
    return [[Fraction(rng.choice(entries)) for _ in range(ncols)] for _ in range(nrows)]


def apply(rows, v):
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


def matrices(count=200, max_size=6, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_matrix(rng, rng.randint(1, max_size), rng.randint(1, max_size))


def is_canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


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
        assert coordinates(self.basis, [target]) == [[Fraction(7, 4)], [Fraction(5, 4)]]

    def test_target_outside_span_raises(self):
        # x1^2 is a monomial of no basis element: its row must still be checked
        target = self.basis[0] + Polynomial.monomial(2, (2, 0))
        with pytest.raises(InconsistentSystem):
            coordinates(self.basis, [target])

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
            coordinates(basis, [self.basis[1]])

    def test_all_zero_basis_raises(self):
        # no monomial anywhere: the system still has one column per basis element
        z = Polynomial.zero(2)
        with pytest.raises(ValueError, match="underdetermined"):
            coordinates([z], [z])
        with pytest.raises(ValueError, match="underdetermined"):
            coordinates([z, z], [z])

    def test_empty_basis(self):
        z = Polynomial.zero(2)
        assert coordinates([], [z]) == []
        assert coordinates([], [z, z]) == []
        with pytest.raises(InconsistentSystem):
            coordinates([], [self.basis[0]])


class TestRankNullspace:
    def test_rank_nullity(self):
        for rows in matrices():
            kernel = nullspace(rows)
            assert rank(rows) + len(kernel) == len(rows[0])
            for v in kernel:
                assert all(c == 0 for c in apply(rows, v))

    def test_zero_rows_change_nothing(self):
        rng = random.Random(13)
        for rows in matrices():
            padded = [list(r) for r in rows]
            for _ in range(rng.randint(1, 3)):
                padded.insert(rng.randint(0, len(padded)), [rng.choice([0, Fraction(0)])] * len(rows[0]))
            assert nullspace(padded) == nullspace(rows)

    def test_all_zero_matrix_has_the_unit_basis(self):
        for k, m in [(1, 1), (1, 3), (3, 2), (4, 4)]:
            assert nullspace([[0] * m for _ in range(k)]) == [[int(c == r) for c in range(m)] for r in range(m)]

    def test_zero_rows_are_not_eliminated(self, monkeypatch):
        seen = []
        original = linalg._rref

        def spy(rows, ncols):
            seen.extend(rows)
            return original(rows, ncols)

        monkeypatch.setattr(linalg, "_rref", spy)
        assert nullspace([[0, 0, 0], [1, 2, 0], [0, 0, 0], [0, 1, 1]]) == [[2, -1, 1]]
        # a passing sweep's stacked M_op - c I has zero rows (Omega_1's block is all zero)
        assert spectra.uniqueness_sweep(2, 6).passed
        assert seen and all(any(row) for row in seen)

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


def differential_cases(count=400, seed=17):
    """(rows, k): seeded matrices of every shape, pivoting in the first k columns.

    Entries are ints and Fractions, some of them above 10^6.  A case is
    plain, square, rank-deficient (rows that are combinations of earlier
    rows) or augmented (right-hand-side columns past k, some consistent).
    """
    rng = random.Random(seed)
    huge = [10**6 + 3, -(10**7) - 9, 2**61 - 1]

    def entry():
        pick = rng.random()
        if pick < 0.3:
            return 0
        if pick < 0.6:
            return rng.randint(-9, 9)
        if pick < 0.85:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        return rng.choice(huge) * Fraction(rng.choice([1, -1]), rng.choice([1, 1, 7, 10**6 + 33]))

    def combination(rows):
        picked = rng.sample(rows, min(len(rows), 2))
        return [sum(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * r[c] for r in picked)
                for c in range(len(rows[0]))]

    for case in range(count):
        shape = ("plain", "square", "deficient", "augmented")[case % 4]
        nrows = rng.randint(1, 7)
        ncols = nrows if shape == "square" else rng.randint(1, 7)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if shape == "deficient" and nrows > 1:
            for i in range(1, nrows):
                if rng.random() < 0.6:
                    rows[i] = combination(rows[:i])
        k = rng.randint(0, ncols) if shape == "plain" else ncols
        if shape == "augmented":
            x = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
            rhs = [[sum(a * v for a, v in zip(row, xs)) for xs in x] for row in rows]
            if rng.random() < 0.5:
                rhs[rng.randrange(nrows)][0] += 1  # usually breaks consistency
            rows = [[*row, *b] for row, b in zip(rows, rhs)]
        yield rows, k


class TestFractionFreeElimination:
    def test_agrees_with_fraction_elimination(self):
        square_full_rank = deficient_rows = 0
        for rows, k in differential_cases():
            want, want_pivots, _ = reference_rref(rows, k)
            got, pivots = linalg._rref(rows, k)
            assert pivots == want_pivots
            rank_ = len(pivots)
            assert got[:rank_] == want[:rank_]
            assert all(is_canonical(x) for row in got[:rank_] for x in row)
            # below the rank only the zero pattern counts (solve reads it past ncols)
            assert [[bool(x) for x in row] for row in got[rank_:]] == [[bool(x) for x in row] for row in want[rank_:]]
            assert len(got) == len(rows)
            deficient_rows += len(rows) - rank_
            if k == len(rows) == len(rows[0]) == rank_:
                square_full_rank += 1
        assert square_full_rank > 50 and deficient_rows > 100

    def test_span_matrices_match_fraction_elimination(self, monkeypatch):
        systems = []
        original = linalg.coordinates

        def recorded(basis, target):
            result = original(basis, target)
            systems.append((basis, target, result))
            return result

        monkeypatch.setattr(linalg, "coordinates", recorded)
        assert spectra.uniqueness_sweep(3, 8).passed
        monkeypatch.undo()
        assert len(systems) >= 8  # at least one operator matrix per degree
        monkeypatch.setattr(linalg, "_rref", lambda rows, ncols: reference_rref(rows, ncols)[:2])
        for basis, target, result in systems:
            assert coordinates(basis, target) == result


class TestCanonicalScalars:
    def test_no_integral_fraction_comes_out(self):
        rng = random.Random(23)
        results = []
        for rows in matrices():
            results.append(nullspace(rows))
            if rank(rows) == len(rows[0]):
                x = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in rows[0]]
                results.append([solve(rows, apply(rows, x))])
        results.append([solve([[2, 0], [0, 1]], [4, 1])])
        basis = TestCoordinates.basis
        results.append(coordinates(basis, [basis[0].scale(4), Polynomial(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})]))
        checked = 0
        for matrix in results:
            for row in matrix:
                for x in row:
                    assert is_canonical(x), x
                    checked += 1
        assert checked > 500
