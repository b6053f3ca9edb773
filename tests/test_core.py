import itertools
import math
import warnings

import numpy as np
import pytest

import scalar_oracle as oracle
from hog.core import (OutcomeTable, _mean, argmax_selection, argmin_selection,
                      attains, attains_exhaustively, average_quantifier,
                      constant_selection, custom_quantifier,
                      custom_selection, eps_ball_quantifier,
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


def test_exhaustive_first_failing_or_raising_table_decides():
    # (0, 1) fails before (5, 0), which has no fixed point, raises.
    assert not attains_exhaustively(fixed_point_witness(), max_quantifier(),
                                    2, [0, 1, 5], 0)
    with pytest.raises(NoFixedPointError) as err:
        attains_exhaustively(fixed_point_witness(), eps_ball_quantifier(0, 9),
                             2, [0, 5], 0)
    assert str(err.value) == "no fixed point in OutcomeTable([5.0, 0.0])"
    # Tables outside the domain are never selected on, even by a selection
    # that would raise on them.
    assert attains_exhaustively(constant_selection(2), fixed_point_quantifier(),
                                1, [5, 7], 0)
    # The table (1, (1, 2)) mixes dimensions; (1, 0) fails before it.
    assert not attains_exhaustively(constant_selection(1), max_quantifier(),
                                    2, [1, 0, (1, 2)], 0)
    with pytest.raises(StructuralError) as err:
        attains_exhaustively(constant_selection(0), eps_ball_quantifier(0, 9),
                             2, [1, (1, 2)], 0)
    assert str(err.value) == "mixed outcome dimensions in table"


def test_exhaustive_calls_custom_kinds_one_table_at_a_time():
    calls = []

    def select(p):
        calls.append(("select", p))
        return 0

    def contains(p, r, tol):
        calls.append(("contains", p))
        return r == max(p.entries)

    def in_domain(p, tol):
        calls.append(("in_domain", p))
        return p[1] != 2

    phi = custom_quantifier(contains, in_domain=in_domain)
    assert not attains_exhaustively(custom_selection(select), phi, 2,
                                    [1, 2, 0], 0)
    # (1, 2) is outside the domain; (2, 1) passes; (2, 2) is outside;
    # (1, 0) and (2, 0) pass; (0, 1) fails and nothing after it is seen.
    tables = [(1, 1), (1, 2), (1, 0), (2, 1), (2, 2), (2, 0), (0, 1)]
    want = []
    for t in tables:
        want.append(("in_domain", OutcomeTable(t)))
        if t[1] != 2:
            want += [("select", OutcomeTable(t)), ("contains", OutcomeTable(t))]
    assert calls == want
    assert all(type(p) is OutcomeTable for _, p in calls)
    calls.clear()
    assert attains_exhaustively(custom_selection(select),
                                eps_ball_quantifier(0, 9), 2, [1, 2], 0)
    assert calls == [("select", OutcomeTable(t))
                     for t in itertools.product([1, 2], repeat=2)]


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


@pytest.mark.parametrize("factory, make, kind", [
    (max_quantifier, make_standard_quantifier, "max"),
    (min_quantifier, make_standard_quantifier, "min"),
    (fixed_point_quantifier, make_standard_quantifier, "fixed_point"),
    (average_quantifier, make_standard_quantifier, "average"),
    (argmax_selection, make_standard_selection, "argmax"),
    (argmin_selection, make_standard_selection, "argmin"),
    (nearest_mean_selection, make_standard_selection, "nearest_mean"),
])
def test_stock_factories_share_one_read_only_instance(factory, make, kind):
    shared = factory()
    assert factory() is shared
    assert make(kind) is shared
    assert shared.descriptor == {"kind": kind}
    with pytest.raises(TypeError):
        shared.descriptor["kind"] = "other"
    assert factory().descriptor == {"kind": kind}


def test_parameterised_and_custom_factories_build_fresh_objects():
    for make in (lambda: eps_ball_quantifier(0, 1.0),
                 lambda: make_standard_quantifier("eps_ball", center=0,
                                                  radius=1.0),
                 lambda: constant_selection(1),
                 lambda: make_standard_selection("constant", move=1),
                 lambda: fixed_point_witness(0.5),
                 lambda: make_standard_selection("fixed_point_witness"),
                 lambda: custom_quantifier(lambda p, r, tol: True),
                 lambda: custom_selection(lambda p: 0)):
        assert make() is not make()


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


def _outcome(f, *args):
    """What ``f`` returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (StructuralError, NoFixedPointError) as exc:
        return type(exc), str(exc)


def _contains_rows(contains, tables, values, tol):
    """The scalar oracle for ``contains_stacked``: ``contains`` on each
    table and each of its values, or the first error it raises."""
    return _outcome(lambda: [
        [contains(OutcomeTable(t.tolist()), r.tolist(), tol) for r in row]
        for t, row in zip(tables, values)])


def _contains_stacked(phi, tables, values, tol):
    def run():
        got = phi.contains_stacked(tables, values, tol)
        assert got.dtype == bool and got.shape == values.shape[:2]
        return got.tolist()
    return _outcome(run)


def test_contains_stacked_matches_contains_row_by_row():
    rng = np.random.default_rng(606)
    scalar = [(max_quantifier(), oracle.max_contains),
              (min_quantifier(), oracle.min_contains),
              (fixed_point_quantifier(), oracle.fixed_point_contains),
              (eps_ball_quantifier(0, 0.5), oracle.eps_ball_contains(0, 0.5)),
              (eps_ball_quantifier(2, 1), oracle.eps_ball_contains(2, 1))]
    vector = [(eps_ball_quantifier(1, 0.5), oracle.eps_ball_contains(1, 0.5)),
              (eps_ball_quantifier(0, 1), oracle.eps_ball_contains(0, 1))]
    for phis, d in ((scalar, None), (vector, 2)):
        for phi, contains in phis:
            for m in range(3, 6):
                for tables, values in _stacks(rng, m, d):
                    for tol in (0.0, 1e-9, 0.5):
                        got = phi.contains_stacked(tables, values[:, None], tol)
                        assert got.shape == (len(tables), 1)
                        want = [contains(OutcomeTable(t.tolist()),
                                         v.tolist(), tol)
                                for t, v in zip(tables, values)]
                        assert got[:, 0].tolist() == want, (phi.kind, m, tol)
                        assert [phi.contains(t, v, tol) for t, v
                                in zip(tables, values)] == want


def _candidates(rng, tables, k):
    """k values per table: its entries, one tolerance step or half a unit
    away from them, or anywhere."""
    n, m = tables.shape[:2]
    hit = tables[np.arange(n)[:, None], rng.integers(0, m, (n, k))]
    step = rng.choice([0.0, 1e-9, -1e-9, 0.5, -0.5], hit.shape)
    return np.where(rng.random(hit.shape) < 0.2,
                    rng.uniform(-2, 2, hit.shape), hit + step)


@pytest.mark.filterwarnings("error")
def test_membership_kernels_match_scalar_oracle():
    # Several values per table; ties, signed zeros, move ids, outcomes of
    # +-1.7e308, whose differences overflow, and infinities; the oracle's
    # first error.
    rng = np.random.default_rng(1113)
    scalar = [(max_quantifier(), oracle.max_contains),
              (min_quantifier(), oracle.min_contains),
              (fixed_point_quantifier(), oracle.fixed_point_contains),
              (eps_ball_quantifier(0, 0.5), oracle.eps_ball_contains(0, 0.5)),
              (eps_ball_quantifier(2, 1), oracle.eps_ball_contains(2, 1)),
              (average_quantifier(), oracle.average_contains)]
    vector = [(eps_ball_quantifier(1, 0.5), oracle.eps_ball_contains(1, 0.5)),
              (max_quantifier(), oracle.max_contains),
              (average_quantifier(), oracle.average_contains)]
    raised = set()
    for phis, d in ((scalar, ()), (vector, (2,))):
        for phi, contains in phis:
            for m in (1, 2, 3, 7):
                shape = (40, m, *d)
                for tables in (rng.integers(0, 3, shape) * 1.0,
                               rng.choice([0.0, -0.0, 1.0, -1.0], shape),
                               rng.integers(0, m, shape)
                               + rng.choice([0.0, 0.0, 1e-9, 0.5], shape),
                               rng.uniform(-2, 2, shape),
                               rng.choice([1.7e308, -1.7e308, 0.0, 1.0],
                                          shape),
                               rng.choice([np.inf, -np.inf, 0.0, 1.0], shape)):
                    if d and np.isinf(tables).any():
                        # Python's max over a vector's componentwise
                        # distances keeps a NaN only when it comes first;
                        # see test_kernels_follow_numpy_on_nan.
                        continue
                    values = _candidates(rng, tables, 4)
                    for tol in (0.0, 1e-9, 0.5):
                        want = _contains_rows(contains, tables, values, tol)
                        assert (_contains_stacked(phi, tables, values, tol)
                                == want), (phi.kind, m, d, tol)
                        if isinstance(want, tuple):
                            raised.add(want[1])
    assert raised == {"eps_ball center 1 outside table of size 1",
                      "eps_ball center 2 outside table of size 1",
                      "eps_ball center 2 outside table of size 2",
                      "max requires scalar outcomes, got dimension 2",
                      "average requires scalar outcomes, got dimension 2"}


def test_contains_stacked_raises_where_contains_raises():
    vector = np.zeros((4, 3, 2))
    for phi in (max_quantifier(), min_quantifier(), fixed_point_quantifier(),
                average_quantifier()):
        with pytest.raises(StructuralError) as scalar_err:
            phi.contains(OutcomeTable(vector[0].tolist()), (0.0, 0.0), 0.0)
        with pytest.raises(StructuralError) as stacked_err:
            phi.contains_stacked(vector, np.zeros((4, 1, 2)), 0.0)
        assert str(stacked_err.value) == str(scalar_err.value)
    phi = eps_ball_quantifier(3, 0.5)
    with pytest.raises(StructuralError) as scalar_err:
        phi.contains(OutcomeTable([0.0, 0.0, 0.0]), 0.0, 0.0)
    with pytest.raises(StructuralError) as stacked_err:
        phi.contains_stacked(np.zeros((4, 3)), np.zeros((4, 1)), 0.0)
    assert str(stacked_err.value) == str(scalar_err.value)
    with pytest.raises(StructuralError) as err:
        max_quantifier().contains_stacked(np.zeros((4, 3)), np.zeros(4), 0.0)
    assert str(err.value) == ("max: values of shape (4,) do not stack with "
                              "tables of shape (4, 3)")


def _select_rows(select, tables):
    """The scalar oracle for ``select_stacked``: ``select`` row by row, or
    the type and message of the first error it raises."""
    return _outcome(lambda: [select(OutcomeTable(t.tolist())) for t in tables])


def _select_stacked(eps, tables):
    def run():
        moves = eps.select_stacked(tables)
        assert moves.dtype == np.intp and moves.shape == (len(tables),)
        return moves.tolist()
    return _outcome(run)


SELECTIONS = [(argmax_selection(), oracle.argmax),
              (argmin_selection(), oracle.argmin),
              (nearest_mean_selection(), oracle.nearest_mean),
              (constant_selection(0), oracle.constant(0)),
              (constant_selection(2), oracle.constant(2)),
              (fixed_point_witness(), oracle.fixed_point_witness()),
              (fixed_point_witness(0.5), oracle.fixed_point_witness(0.5))]


def _selection_stacks(rng, m):
    """Seeded stacks of m-move tables: continuous, heavily tied, signed
    zeros, move ids (fixed points), mixed magnitudes, and non-finite rows."""
    shape = (40, m)
    zeros = rng.choice([0.0, -0.0, 1.0, -1.0], shape)
    yield rng.uniform(-2, 2, shape)
    yield rng.integers(0, 3, shape) * 1.0
    yield zeros
    yield rng.integers(0, m + 1, shape) + rng.choice([0.0, 0.0, 0.5], shape)
    yield rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-20, 20, shape)
    special = rng.integers(0, 3, shape) * 1.0
    for value in (np.nan, np.inf, -np.inf):
        special[rng.random(shape) < 0.05] = value
    yield special


def test_select_stacked_matches_select_row_by_row():
    # The oracle's loops and numpy's argmax and argmin differ on NaN (see
    # test_kernels_follow_numpy_on_nan), so rows holding one are left out;
    # rows with infinities are compared.
    rng = np.random.default_rng(2718)
    raised = set()
    for m in (1, 2, 3, 5, 8):
        for tables in _selection_stacks(rng, m):
            tables = tables[~np.isnan(tables).any(axis=1)]
            for eps, select in SELECTIONS:
                want = _select_rows(select, tables)
                assert _select_stacked(eps, tables) == want, (eps.kind, m)
                assert _outcome(lambda: [eps.select(t) for t in tables]) == want
                if isinstance(want, tuple):
                    raised.add(want[0])
                    # Rows before the failing one still agree.
                    for n in range(len(tables)):
                        if isinstance(_select_rows(select, tables[:n + 1]),
                                      tuple):
                            break
                    assert (_select_stacked(eps, tables[:n])
                            == _select_rows(select, tables[:n]))
    assert raised == {StructuralError, NoFixedPointError}


def test_select_stacked_ties_and_signed_zeros():
    tables = np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 1.0], [1.0, 1.0, 1.0],
                       [0.0, -1.0, -1.0]])
    assert argmax_selection().select_stacked(tables).tolist() == [0, 2, 0, 0]
    assert argmin_selection().select_stacked(tables).tolist() == [0, 0, 0, 1]
    assert nearest_mean_selection().select_stacked(tables).tolist() == [0, 0, 0, 1]


def test_select_stacked_on_order_sensitive_and_overflowing_sums():
    # Sums that depend on the order of addition; the nearest move changes
    # with the rounding of the mean.
    rng = np.random.default_rng(99)
    for m in (5, 9, 16):
        tables = rng.choice([1e16, -1e16, 1.0, 3.0, 0.5, -2.0], (300, m))
        assert (_select_stacked(nearest_mean_selection(), tables)
                == _select_rows(oracle.nearest_mean, tables))
    # Finite entries whose sum overflows, and a finite mean whose distance
    # to an entry overflows.
    tables = np.array([[1e308, 1e308, 0.0], [-1e308, 5.0, -1e308],
                       [1.7e308, -1.7e308, -1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, select in SELECTIONS[:3]:
            assert _select_stacked(eps, tables) == _select_rows(select, tables)


def test_mean_is_summed_left_to_right():
    # Left to right: 0.1 + 0.2 + 0.3 - 0.6 + 1e-17 = 1.2102230246251564e-16;
    # the exact sum of these floats, which Python 3.12's sum comes closer
    # to, is about 3.78e-17.
    row = [0.1, 0.2, 0.3, -0.6, 1e-17]
    assert _mean(np.array([row])).tolist() == [1.2102230246251564e-16 / 5]
    assert math.fsum(row) / 5 != 1.2102230246251564e-16 / 5


def test_kernels_follow_numpy_on_nan():
    # argmax and argmin choose the first NaN; max and min propagate it, so
    # no value is acceptable on a table that holds one, nor is NaN itself.
    tables = np.array([[1.0, np.nan, 3.0, np.nan], [np.nan, 0.0, -1.0, 5.0],
                       [2.0, 0.0, -1.0, 5.0]])
    assert argmax_selection().select_stacked(tables).tolist() == [1, 0, 3]
    assert argmin_selection().select_stacked(tables).tolist() == [1, 0, 2]
    assert nearest_mean_selection().select_stacked(tables).tolist() == [0, 0, 0]
    values = np.array([[3.0, np.nan], [-1.0, 5.0], [5.0, np.nan]])
    assert max_quantifier().contains_stacked(tables, values, 0.0).tolist() == [
        [False, False], [False, False], [True, False]]
    assert min_quantifier().contains_stacked(tables, values, 1.0).tolist() == [
        [False, False], [False, False], [False, False]]
    assert math.isnan(max_quantifier().canonical(OutcomeTable([1.0, np.nan])))
    assert not average_quantifier().contains(tables[0], 1.0, 0.0)
    # An infinite entry's distance to an equal infinite mean is NaN:
    # nearest_mean and average scan past it as the oracle's loop does, and
    # an infinite value is never within a tolerance of itself.
    tables = np.array([[0.0, np.inf, 2.0], [np.inf, 0.0, 1.0],
                       [-np.inf, np.inf, 1.0]])
    assert nearest_mean_selection().select_stacked(tables).tolist() == [0, 0, 0]
    values = np.array([[0.0, np.inf], [0.0, np.inf], [1.0, np.inf]])
    assert average_quantifier().contains_stacked(tables, values, 0.0).tolist() == [
        [True, False], [False, False], [False, False]]
    assert max_quantifier().contains_stacked(tables, values, 1.0).tolist() == [
        [False, False], [False, False], [False, False]]
    assert eps_ball_quantifier(0, 1.0).contains(
        OutcomeTable([(np.inf, 0.0), (np.inf, 0.0)]), (np.inf, 0.0), 0.0) is False


def test_select_stacked_errors():
    vector = np.zeros((3, 2, 2))
    for eps, select in (SELECTIONS[:3] + SELECTIONS[5:6]):
        assert _select_stacked(eps, vector) == _select_rows(select, vector)
        assert _select_stacked(eps, vector)[0] is StructuralError
    err = _select_stacked(constant_selection(3), np.zeros((2, 3)))
    assert err == (StructuralError, "constant move 3 outside table of size 3")
    tables = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 2.0]])
    err = _select_stacked(fixed_point_witness(), tables)
    assert err == (NoFixedPointError,
                   "no fixed point in OutcomeTable([1.0, 0.0])")
    # A NaN row that select decides (move 0 is a fixed point) does not
    # change which row raises.
    tables[0] = [0.0, np.nan]
    assert _select_stacked(fixed_point_witness(), tables) == err
    assert argmax_selection().select_stacked(np.zeros((0, 3))).tolist() == []
    with pytest.raises(StructuralError):
        argmax_selection().select_stacked(np.zeros(3))


def test_select_stacked_custom_fallback():
    calls = []

    def select(p):
        calls.append(p)
        return len(p) - 1 if p[0] > 0 else 0

    eps = custom_selection(select)
    tables = np.array([[1.0, 2.0, 3.0], [-1.0, 5.0, 0.0], [np.nan, 1.0, 2.0]])
    assert eps.select_stacked(tables).tolist() == [2, 0, 0]
    assert list(map(repr, calls)) == [repr(OutcomeTable(t.tolist()))
                                      for t in tables]
    vector = np.ones((2, 3, 2))
    assert custom_selection(lambda p: p.dim).select_stacked(
        vector).tolist() == [2, 2]
