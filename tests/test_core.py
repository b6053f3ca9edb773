import itertools

import numpy as np
import pytest

from hog.core import (OutcomeTable, argmax_selection, argmin_selection,
                      attains, attains_exhaustively, average_quantifier,
                      constant_selection, eps_ball_quantifier,
                      fixed_point_quantifier, fixed_point_witness,
                      make_standard_quantifier, make_standard_selection,
                      max_quantifier, min_quantifier, nearest_mean_selection,
                      outcome_distance)
from hog.errors import (BudgetExceededError, NoFixedPointError,
                        StructuralError)


def test_outcome_table_basic():
    p = OutcomeTable([1, 3, 2])
    assert len(p) == 3
    assert p[1] == 3.0
    assert p.scalar and p.dim == 1


def test_outcome_table_vectors():
    p = OutcomeTable([(1, 2), (3, 4)])
    assert p.dim == 2 and not p.scalar
    with pytest.raises(StructuralError):
        OutcomeTable([(1, 2), (3,)])
    with pytest.raises(StructuralError):
        OutcomeTable([1, (2, 3)])
    with pytest.raises(StructuralError):
        OutcomeTable([])


def test_outcome_distance_mismatch():
    assert outcome_distance(1.0, 3.0) == 2.0
    assert outcome_distance((1.0, 5.0), (2.0, 3.0)) == 2.0
    with pytest.raises(StructuralError):
        outcome_distance(1.0, (1.0, 2.0))


def test_argmax_attains_max():
    p = OutcomeTable({"a": 1, "b": 3, "c": 2}.values())
    assert attains(argmax_selection(), max_quantifier(), p, 0)


def test_constant_attains_eps_ball():
    # The ball around the designated move is attained by playing it.
    for entries in itertools.product([0, 1, 2], repeat=3):
        p = OutcomeTable(entries)
        assert attains(constant_selection(0), eps_ball_quantifier(0, 0.5), p, 0)


def test_argmin_does_not_attain_max():
    p = OutcomeTable([0, 1])
    assert not attains(argmin_selection(), max_quantifier(), p, 0)


def test_attains_dimension_mismatch_is_structural():
    p = OutcomeTable([(1, 2), (3, 4)])
    with pytest.raises(StructuralError):
        attains(constant_selection(0), max_quantifier(), p, 0)


def test_exhaustive_argmax_max():
    assert attains_exhaustively(argmax_selection(), max_quantifier(), 2, [0, 1], 0)


def test_exhaustive_argmin_min():
    assert attains_exhaustively(argmin_selection(), min_quantifier(), 3,
                                [-2, 0, 1, 3], 0)


def test_exhaustive_fixed_point():
    # Tables without a fixed point are outside the quantifier's domain and
    # are skipped; the witness attains on all the others.
    assert attains_exhaustively(
        fixed_point_witness(), fixed_point_quantifier(), 3, [0, 1, 2], 0
    )


def test_exhaustive_constant_vs_max_counterexample():
    # Oracle: loop over all 4 tables by hand.
    failures = []
    for entries in itertools.product([0, 1], repeat=2):
        if entries[0] != max(entries):
            failures.append(entries)
    assert failures  # p = (0, 1) is the counterexample
    assert not attains_exhaustively(
        constant_selection(0), max_quantifier(), 2, [0, 1], 0
    )


def test_exhaustive_budget():
    with pytest.raises(BudgetExceededError) as err:
        attains_exhaustively(argmax_selection(), max_quantifier(), 30, [0, 1],
                             budget=1000)
    assert err.value.count == 2 ** 30


def test_max_with_duplicates():
    phi = max_quantifier()
    p = OutcomeTable([2, 2])
    assert phi.canonical(p) == 2.0
    assert phi.contains(p, 2, 0)


def test_eps_ball_membership_arithmetic():
    phi = eps_ball_quantifier(0, 0.1)
    p = OutcomeTable([5, 5.05])
    assert phi.contains(p, 5.05, 0)
    assert not phi.contains(p, 5.2, 0)


def test_fixed_point_membership():
    phi = fixed_point_quantifier()
    p = OutcomeTable([1, 1])
    assert phi.contains(p, 1, 0)
    assert not phi.contains(p, 0, 0)
    assert not phi.in_domain(OutcomeTable([1, 0]), 0)


def test_fixed_point_witness_errors_without_fixed_point():
    with pytest.raises(NoFixedPointError):
        fixed_point_witness().select(OutcomeTable([1, 0]))


def test_single_valued_consistency_on_grid():
    # contains(p, r, 0) holds exactly for the canonical value.
    for phi in (max_quantifier(), min_quantifier()):
        for entries in itertools.product([-1, 0, 1, 2], repeat=3):
            p = OutcomeTable(entries)
            want = phi.canonical(p)
            for r in [-1, 0, 1, 2]:
                assert phi.contains(p, r, 0) == (float(r) == want)


def test_tie_break_is_lowest_move():
    assert argmax_selection().select(OutcomeTable([3, 3, 1])) == 0
    assert argmin_selection().select(OutcomeTable([2, 1, 1])) == 1
    assert fixed_point_witness().select(OutcomeTable([0, 1])) == 0


def test_average_quantifier_attained_by_nearest_mean():
    phi = average_quantifier()
    eps = nearest_mean_selection()
    assert attains_exhaustively(eps, phi, 3, [-2, -1, 0, 1, 2], 0)
    # Two entries equidistant from the mean: both values are acceptable.
    p = OutcomeTable([0, 1])
    assert phi.contains(p, 0, 0) and phi.contains(p, 1, 0)
    assert eps.select(p) == 0


def test_make_standard_roundtrip_kinds():
    for kind in ["max", "min", "fixed_point", "average"]:
        assert make_standard_quantifier(kind).descriptor == {"kind": kind}
    ball = make_standard_quantifier("eps_ball", center=1, radius=0.25)
    assert ball.descriptor == {"kind": "eps_ball", "center": 1, "radius": 0.25}
    for kind in ["argmax", "argmin", "fixed_point_witness", "nearest_mean"]:
        assert make_standard_selection(kind).descriptor == {"kind": kind}
    const = make_standard_selection("constant", move=2)
    assert const.descriptor == {"kind": "constant", "move": 2}


def test_make_standard_validation():
    with pytest.raises(StructuralError):
        make_standard_quantifier("eps_ball", center=0, radius=0.0)
    with pytest.raises(StructuralError):
        make_standard_quantifier("eps_ball", center=0)
    with pytest.raises((StructuralError, ValueError)):
        make_standard_quantifier("nope")
    # Fixed-point machinery rejects vector outcomes.
    with pytest.raises(StructuralError):
        fixed_point_quantifier().contains(OutcomeTable([(1, 2), (3, 4)]), 1, 0)


def test_diagonal_point_membership():
    from hog.core import DiagonalPoint

    table = OutcomeTable([1, 3, 2])
    assert DiagonalPoint(table, 1).satisfies(max_quantifier(), 0)
    assert not DiagonalPoint(table, 0).satisfies(max_quantifier(), 0)
    assert DiagonalPoint(table, 0).satisfies(eps_ball_quantifier(1, 2.0), 0)


def test_single_valued_flag():
    assert max_quantifier().single_valued
    assert min_quantifier().single_valued
    assert not eps_ball_quantifier(0, 1.0).single_valued
    assert not fixed_point_quantifier().single_valued
    assert not average_quantifier().single_valued


def _stacks(rng, m, d=None):
    """Random and heavily tied tables of m moves, with values that hit
    table entries, sit exactly one tolerance step away, or fall anywhere."""
    shape = (60, m) if d is None else (60, m, d)
    tables = [rng.uniform(-2, 2, shape), rng.integers(0, 3, shape) * 1.0,
              rng.integers(0, m, shape) + rng.choice([0.0, 1e-9, -0.5], shape)]
    for t in tables:
        rows = np.arange(len(t))
        hit = t[rows, rng.integers(0, m, len(t))]
        step = rng.choice([0.0, 1e-9, -1e-9, 0.5, -0.5, 1.0],
                          hit.shape)
        yield t, np.where(rng.random(hit.shape) < 0.2,
                          rng.uniform(-2, 2, hit.shape), hit + step)


def test_contains_stacked_matches_contains_row_by_row():
    rng = np.random.default_rng(606)
    scalar = [max_quantifier(), min_quantifier(), fixed_point_quantifier(),
              eps_ball_quantifier(0, 0.5), eps_ball_quantifier(2, 1)]
    vector = [eps_ball_quantifier(1, 0.5), eps_ball_quantifier(0, 1)]
    for phis, d in ((scalar, None), (vector, 2)):
        for phi in phis:
            for m in range(3, 6):
                for tables, values in _stacks(rng, m, d):
                    for tol in (0.0, 1e-9, 0.5):
                        got = phi.contains_stacked(tables, values, tol)
                        assert got.shape == (len(tables),)
                        want = [phi.contains(OutcomeTable(t.tolist()),
                                             v.tolist(), tol)
                                for t, v in zip(tables, values)]
                        assert got.tolist() == want, (phi.kind, m, tol)


def test_contains_stacked_raises_where_contains_raises():
    vector = np.zeros((4, 3, 2))
    for phi in (max_quantifier(), min_quantifier(), fixed_point_quantifier()):
        with pytest.raises(StructuralError) as scalar_err:
            phi.contains(OutcomeTable(vector[0].tolist()), (0.0, 0.0), 0.0)
        with pytest.raises(StructuralError) as stacked_err:
            phi.contains_stacked(vector, np.zeros((4, 2)), 0.0)
        assert str(stacked_err.value) == str(scalar_err.value)
    phi = eps_ball_quantifier(3, 0.5)
    with pytest.raises(StructuralError) as scalar_err:
        phi.contains(OutcomeTable([0.0, 0.0, 0.0]), 0.0, 0.0)
    with pytest.raises(StructuralError) as stacked_err:
        phi.contains_stacked(np.zeros((4, 3)), np.zeros(4), 0.0)
    assert str(stacked_err.value) == str(scalar_err.value)
    assert average_quantifier().contains_stacked is None
