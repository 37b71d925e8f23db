"""Property tests for the package's one GF(2) elimination.

`gf2tower._ColumnSolver` reduces int-bitmask vectors at their least set bits
and hands back its kernel basis in reduced row echelon form; `codes.rref` and
`codes.nullspace` are built on it. Vectors are drawn as up to 12 rows of up to
20 bits, with duplicates and zero rows allowed.
"""

from functools import reduce
from operator import xor

from hypothesis import given, settings
from hypothesis import strategies as st

from goppa_orbits.codes import nullspace, rref
from goppa_orbits.gf2tower import _apply_cols, _ColumnSolver

ELIM = settings(max_examples=100, deadline=None, derandomize=True, database=None)

WIDTH = 20
vectors = st.lists(st.integers(0, (1 << WIDTH) - 1), max_size=12)


def is_reduced_echelon(rows):
    pivots = [(r & -r).bit_length() - 1 for r in rows]
    return (all(rows) and pivots == sorted(set(pivots))
            and all((r >> p) & 1 == (i == k)
                    for k, p in enumerate(pivots) for i, r in enumerate(rows)))


@ELIM
@given(vectors)
def test_rref_is_reduced_and_idempotent(rows):
    reduced = rref(rows)
    assert is_reduced_echelon(reduced)
    assert rref(list(reduced)) == reduced
    # same span: each side lies in the span of the other
    assert all(_ColumnSolver(list(reduced)).solve(r) is not None for r in rows)
    assert all(_ColumnSolver(rows).solve(r) is not None for r in reduced)


@ELIM
@given(vectors, st.randoms(use_true_random=False))
def test_rref_invariant_under_row_operations(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    sums = [reduce(xor, rng.sample(rows, rng.randint(1, len(rows))), 0)
            for _ in range(3)] if rows else []
    for i in range(1, len(shuffled)):  # random elementary row additions
        if rng.random() < 0.5:
            shuffled[i] ^= shuffled[rng.randrange(i)]
    assert rref(shuffled + sums) == rref(rows)


@ELIM
@given(vectors, st.integers(0, WIDTH))
def test_nullspace_orthogonal_with_complementary_dimension(rows, extra):
    width = WIDTH + extra
    ns = nullspace(rows, width)
    assert all((v & r).bit_count() % 2 == 0 for v in ns for r in rows)
    assert len(ns) == width - len(rref(rows))
    assert len(rref(list(ns))) == len(ns)  # independent
    assert all(v >> width == 0 for v in ns)


@ELIM
@given(vectors, st.integers(0, (1 << 12) - 1), st.integers(0, (1 << WIDTH) - 1))
def test_solve_inverts_the_column_map(cols, x, t):
    solver = _ColumnSolver(cols)
    target = _apply_cols(cols, x & ((1 << len(cols)) - 1))
    sol = solver.solve(target)
    assert sol is not None and _apply_cols(cols, sol) == target
    # a target outside the span is exactly one that raises the rank
    outside = len(rref(cols + [t])) > len(rref(cols))
    assert (solver.solve(t) is None) == outside


@ELIM
@given(vectors)
def test_kernel_maps_to_zero_with_nullity_dimension(cols):
    kernel = _ColumnSolver(cols).kernel_basis
    assert all(_apply_cols(cols, k) == 0 for k in kernel)
    assert len(kernel) == len(cols) - len(rref(cols))
    assert kernel == rref(list(kernel))  # reduced: the unique RREF of the kernel

