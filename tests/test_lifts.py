"""Permutation lifts, feasibility reports, united vectors, decompositions."""

import numpy as np
import pytest

import thetaiso as th
from thetaiso.lifts import (
    check_feasible,
    convex_decompose,
    cp_factor_united,
    is_united,
    lift,
    permutation_vector,
)
from conftest import united_family


def test_lift_structure():
    sigma = (2, 0, 1)
    L = lift(sigma)
    assert L.n == 3 and L.sigma == sigma
    E = L.extended()
    assert E.shape == (10, 10)
    assert set(np.unique(E)) <= {0.0, 1.0}
    assert np.linalg.matrix_rank(E) == 1
    assert np.trace(E) == 4.0  # n pair-diagonal ones plus the omega corner
    assert E[9, 9] == 1.0
    # omega column mirrors the diagonal
    assert np.array_equal(E[:9, 9], np.diag(E)[:9])
    q = np.append(permutation_vector(sigma), 1.0)
    assert np.array_equal(np.outer(q, q), E)


def test_lift_rejects_non_permutation():
    with pytest.raises(ValueError):
        lift((0, 0, 1))


def test_lift_rejects_a_non_integral_entry():
    # int() would truncate the floats to (1, 0), (1, 0, 2) and (0, 1), and
    # read the bools, which is_permutation refuses, as (1, 0), (1, 0) and
    # (0, 1, 2): all permutations.
    bools = ((True, False), np.array([True, False]), (0, True, 2))
    assert not any(th.is_permutation(sigma, len(sigma)) for sigma in bools)
    for make in (lift, permutation_vector):
        for sigma in ((1.9, 0.2), (1.5, 0.5, 2.0), np.array([0.0, 1.5])) + bools:
            with pytest.raises(ValueError, match="not a permutation"):
                make(sigma)
    # Integer-valued floats are still read as the permutation they name.
    assert lift(np.array([1.0, 0.0])).sigma == (1, 0)
    assert np.array_equal(permutation_vector(np.array([1.0, 0.0])), [0.0, 1.0, 1.0, 0.0])


def test_lift_rejects_the_empty_permutation():
    # Every lifted matrix has n >= 1; the empty permutation used to give a
    # 1 x 1 "lift", the omega corner alone.
    for make in (lift, permutation_vector):
        with pytest.raises(ValueError, match="n >= 1"):
            make(())


def test_check_feasible_clean_on_isomorphism():
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    sigma = th.enumerate_isomorphisms(g1, g2, cap=1)[0]
    report = check_feasible(lift(sigma).extended(), g1, g2)
    assert report.feasible
    assert report.max_violation == 0.0
    assert report.describe().count("ok") == 8


def test_check_feasible_flags_non_isomorphism():
    g1 = th.cycle_graph(4)
    g2 = th.relabel(g1, (2, 0, 3, 1))
    sigma = (0, 1, 2, 3)  # not an isomorphism for this relabeling
    assert not th.is_isomorphism(sigma, g1, g2)
    report = check_feasible(lift(sigma).extended(), g1, g2)
    assert not report.feasible
    # a permutation lift can only violate the adjacency-mismatch conditions
    assert {v.condition for v in report.violations} <= {7, 8}
    assert all(v.magnitude == 1.0 for v in report.violations)


def test_check_feasible_condition_ids():
    g = th.cycle_graph(3)
    Y = lift((0, 1, 2)).extended()
    omega = 9  # pair (i, j) is index 3i + j

    bad = Y.copy()
    r, s = 0, 1  # pairs (0, 0) and (0, 1)
    bad[r, s] = bad[s, r] = 0.5  # same row, two columns
    report = check_feasible(bad, g, g)
    assert any(v.condition == 5 for v in report.violations)

    bad = Y.copy()
    r, s = 0, 3  # pairs (0, 0) and (1, 0)
    bad[r, s] = bad[s, r] = 0.5  # same column, two rows
    report = check_feasible(bad, g, g)
    assert any(v.condition == 6 for v in report.violations)

    bad = Y.copy()
    bad[omega, omega] = 2.0
    report = check_feasible(bad, g, g)
    assert any(v.condition == 3 for v in report.violations)

    bad = Y.copy()
    d = 4  # pair (1, 1)
    bad[d, omega] = bad[omega, d] = 0.25  # diagonal says 1
    report = check_feasible(bad, g, g)
    assert any(v.condition == 4 for v in report.violations)

    bad = Y - 2.0 * np.eye(10)  # indefinite and negative entries
    report = check_feasible(bad, g, g)
    conds = {v.condition for v in report.violations}
    assert 1 in conds and 2 in conds


def test_check_feasible_rejects_bad_input():
    g = th.cycle_graph(3)
    with pytest.raises(ValueError):
        check_feasible(np.zeros((9, 9)), g, g)  # omega row required
    Y = lift((0, 1, 2)).extended()
    Y[0, 1] += 1.0  # symmetric no more
    with pytest.raises(ValueError):
        check_feasible(Y, g, g)
    # Every comparison with NaN is false, so a NaN on the diagonal of C4's
    # identity lift would pass every condition, and a NaN pair or an
    # infinite matrix would fail inside eigvalsh.
    g = th.cycle_graph(4)
    nan_diagonal = lift((0, 1, 2, 3)).extended()
    nan_diagonal[0, 0] = np.nan
    nan_pair = lift((0, 1, 2, 3)).extended()
    nan_pair[0, 5] = nan_pair[5, 0] = np.nan
    for Y in (nan_diagonal, nan_pair, np.full((17, 17), np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            check_feasible(Y, g, g)


def test_is_united_basics():
    rng = np.random.default_rng(7)
    w = rng.standard_normal(5)
    w /= np.linalg.norm(w)
    assert is_united(w, w)               # w itself
    assert is_united(np.zeros(5), w)     # the zero vector
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    assert is_united((w + v) / 2.0, w)   # midpoint characterization
    assert not is_united(2.0 * w, w)
    with pytest.raises(ValueError):
        is_united(w, w[:3])


def test_united_norm_at_most_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        us, w, _ = united_family(rng, 3, 6)
        for u in us:
            assert np.linalg.norm(u) <= 1.0 + 1e-12


def test_cp_factor_united_hand_case():
    a = 0.25
    u = np.array([0.5, 0.0])
    w = np.array([0.5, np.sqrt(0.75)])
    out = cp_factor_united([u], w)
    assert out.shape == (2, 2)
    assert np.allclose(out[0], [0.5, 0.0], atol=1e-12)
    assert np.allclose(out[1], [0.5, np.sqrt(0.75)], atol=1e-12)


def test_cp_factor_united_gram_match():
    rng = np.random.default_rng(23)
    for trial in range(30):
        k = int(rng.integers(1, 5))
        m = k + 1 + int(rng.integers(0, 4))
        us, w, a = united_family(rng, k, m)
        out = cp_factor_united(us, w)
        assert (out >= 0.0).all()
        vecs = list(out[:-1]) + [out[-1]]
        orig = list(us) + [w]
        G_new = np.array([[x @ y for y in vecs] for x in vecs])
        G_old = np.array([[x @ y for y in orig] for x in orig])
        assert np.abs(G_new - G_old).max() < 1e-9


def test_cp_factor_united_maximality():
    rng = np.random.default_rng(31)
    us, w, a = united_family(rng, 4, 8, full_mass=True)
    assert np.abs(a.sum() - 1.0) < 1e-12
    assert np.abs(sum(us) - w).max() < 1e-9
    out = cp_factor_united(us, w)
    assert abs(out[-1, -1]) < 1e-7  # no residual direction left


def test_cp_factor_united_rejections():
    w = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        cp_factor_united([], w)
    with pytest.raises(ValueError):
        cp_factor_united([w], 2.0 * w)  # w not unit
    with pytest.raises(ValueError):
        cp_factor_united([np.array([0.7, 0.0])], w)  # not united
    us = [np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.0, 0.0])]  # not orthogonal
    w3 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        cp_factor_united(us, w3)
    with pytest.raises(ValueError):
        cp_factor_united([np.zeros(2)], w)  # numerically zero united vector


def test_convex_decompose_single():
    g = th.cycle_graph(4)
    autos = th.enumerate_isomorphisms(g, g)
    L = th.lift(autos[2])
    res = convex_decompose(L.extended(), [th.lift(s) for s in autos])
    assert res.success
    assert res.residual <= 1e-8
    assert abs(res.combination.weight_sum() - 1.0) < 1e-9
    assert np.abs(res.combination.matrix() - L.extended()).max() <= 1e-8


def test_convex_decompose_mixture():
    g = th.cycle_graph(5)
    autos = th.enumerate_isomorphisms(g, g)
    lifts = [th.lift(s) for s in autos]
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.ones(len(lifts)))
    Y = sum(w * L.extended() for w, L in zip(weights, lifts))
    res = convex_decompose(Y, lifts)
    assert res.success
    assert res.residual <= 1e-6
    # lifts can be linearly dependent, so only the recombination is pinned
    assert np.abs(res.combination.matrix() - Y).max() <= 1e-6


def test_convex_decompose_outside_hull():
    g = th.cycle_graph(4)
    autos = th.enumerate_isomorphisms(g, g)
    lifts = [th.lift(s) for s in autos]
    res = convex_decompose(0.5 * lifts[0].extended(), lifts)
    assert not res.success
    assert res.combination is None
    assert res.residual > 1e-4


def test_convex_decompose_reads_omega_row_and_corner():
    # A convex combination of extended lifts has corner 1 and omega's row
    # equal to its pair diagonal; a matrix that breaks both is outside the
    # hull even when its pair block is a lift.
    g = th.cycle_graph(4)
    lifts = [th.lift(s) for s in th.enumerate_isomorphisms(g, g)]
    Y = lifts[2].extended()
    Y[-1, -1] = 7.0
    Y[-1, :-1] = Y[:-1, -1] = -3.0
    res = convex_decompose(Y, lifts)
    assert not res.success
    assert res.combination is None
    assert res.residual >= 3.0


def test_convex_decompose_rejections():
    g = th.cycle_graph(4)
    L = th.lift((0, 1, 2, 3))
    with pytest.raises(ValueError):
        convex_decompose(L.extended(), [])
    with pytest.raises(ValueError):
        convex_decompose(np.zeros((3, 3)), [L])
    with pytest.raises(ValueError):
        convex_decompose(th.lift((0, 1, 2)).extended(), [L])  # n = 3 against n = 4


def _n4_reader(name):
    """Each reader of a lifted matrix, bound to n = 4 inputs where it needs them."""
    g = th.cycle_graph(4)
    return {
        "diagonal_matrix": th.diagonal_matrix,
        "consistent_set_search": th.consistent_set_search,
        "convex_decompose": lambda Y: convex_decompose(Y, [th.lift((0, 1, 2, 3))]),
        "objective_value": lambda Y: th.objective_value(Y, th.build_program(g, g)),
        "check_feasible": lambda Y: check_feasible(Y, g, g),
    }[name]


@pytest.mark.parametrize("side", [16, 20], ids=["bare-n2-block", "not-n2-plus-1"])
@pytest.mark.parametrize("reader", ["diagonal_matrix", "consistent_set_search",
                                    "convex_decompose", "objective_value", "check_feasible"])
def test_readers_take_only_the_lifted_shape(reader, side):
    # Every lifted matrix is (n^2+1)-square: 17 for n = 4.  The bare 16 x 16
    # pair block and a side of 20 (n^2+1 for no n) are both refused.
    read = _n4_reader(reader)
    assert read(th.lift((1, 0, 3, 2)).extended()) is not None
    with pytest.raises(ValueError):
        read(np.zeros((side, side)))
