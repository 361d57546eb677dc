from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coinlab import matrices
from coinlab.bounds import Params
from coinlab.matrices import (
    ConvergenceError,
    build_G,
    norm_2x2,
    spectral_norm,
    spectral_norms,
    verify_norm_bound,
)
from coinlab.walks import StoppingStrategy, draw_steps

ADV = StoppingStrategy.omniscient_extreme(direction=-1)


def test_build_G_decomposition():
    params = Params(n=12, t=2, m=8)
    G = build_G(params, ADV, seed=4)
    assert G.stopped_sums.shape == (8, 12)
    assert np.array_equal(G.stopped_sums, G.full_sums + G.correction_sums)
    # the bad columns, the last t, are zeroed in every round
    assert not G.stopped_sums[:, [10, 11]].any()
    assert not G.full_sums[:, [10, 11]].any()
    assert not G.correction_sums[:, [10, 11]].any()


@pytest.mark.parametrize("as_generator", [False, True])
def test_build_G_rows_are_build_H_column_sums(as_generator):
    # build_G stops all rounds at once; per round it must equal the column
    # sums of one n x n coin matrix H drawn by hand from the same substream
    # (int seed) or the same sequential generator, each of the first t
    # columns stopped at its prefix minimum and the last t zeroed
    params, seed = Params(n=12, t=2, m=8), 4
    G = build_G(params, ADV, np.random.default_rng(seed) if as_generator else seed)
    shared = np.random.default_rng(seed)
    for i in range(params.m):
        rng = shared if as_generator else np.random.default_rng(np.random.SeedSequence((seed, i)))
        H = draw_steps(rng, (12, 12)).astype(np.int64)
        full = H.sum(axis=0)
        full[10:] = 0
        stopped = full.copy()
        stopped[:2] = np.cumsum(H[:, :2], axis=0).min(axis=0)
        assert np.array_equal(G.stopped_sums[i], stopped)
        assert np.array_equal(G.full_sums[i], full)
        assert np.array_equal(G.correction_sums[i], stopped - full)


def test_build_G_deterministic():
    params = Params(n=12, t=2, m=8)
    a = build_G(params, ADV, seed=4)
    b = build_G(params, ADV, seed=4)
    assert np.array_equal(a.stopped_sums, b.stopped_sums)
    c = build_G(params, ADV, seed=5)
    assert not np.array_equal(a.stopped_sums, c.stopped_sums)


def test_norm_2x2_against_numpy():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = rng.normal(size=(2, 2))
        assert norm_2x2(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-10, abs=1e-12)
    # equal singular values (sqrt(68) twice), where trace/det forms lose digits
    tied = np.array([[-2, -8], [-8, 2]])
    assert norm_2x2(tied) == pytest.approx(np.linalg.svd(tied)[1][0], rel=1e-15)


def test_norm_2x2_shape_check():
    with pytest.raises(ValueError):
        norm_2x2(np.ones((3, 3)))


def test_spectral_norm_matches_2x2_oracle_thousand_matrices():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        m = rng.integers(-9, 10, size=(2, 2))
        if not np.any(m):
            m[0, 0] = 1
        expected = norm_2x2(m)
        estimate = spectral_norm(m, rel_tol=1e-6)
        worst = max(worst, abs(estimate.value - expected) / expected)
    assert worst <= 1e-6


def test_spectral_norm_matches_numpy_on_rectangles():
    rng = np.random.default_rng(6)
    for shape in ((5, 3), (3, 5), (8, 8), (1, 4)):
        m = rng.normal(size=shape)
        est = spectral_norm(m, rel_tol=1e-9)
        assert est.value == pytest.approx(np.linalg.norm(m, 2), rel=1e-7)


def test_spectral_norm_reports_certified_error():
    m = np.random.default_rng(1).normal(size=(6, 6))
    est = spectral_norm(m, rel_tol=1e-6)
    truth = np.linalg.norm(m, 2)
    assert abs(est.value - truth) / truth <= est.relative_error_bound + 1e-12
    assert est.relative_error_bound <= 1e-6
    assert est.iterations_used >= 1


def test_spectral_norm_deterministic():
    m = np.random.default_rng(9).normal(size=(7, 4))
    assert spectral_norm(m).value == spectral_norm(m).value


def test_spectral_norm_input_checks():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        spectral_norm(np.ones(4))
    with pytest.raises(ValueError):
        spectral_norm(np.ones((2, 2)), rel_tol=0.0)
    with pytest.raises(ValueError):
        spectral_norm(np.empty((0, 3)))


def test_spectral_norm_convergence_error_carries_best():
    # no floating-point residual certifies 1e-18
    m = np.random.default_rng(3).normal(size=(10, 10))
    with pytest.raises(ConvergenceError) as info:
        spectral_norm(m, rel_tol=1e-18)
    assert info.value.best is not None
    assert info.value.best.value > 0


@st.composite
def matrix_stacks(draw):
    """Stacks of wide, tall or square matrices, each dense, rank 1 or all zero."""
    k, rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entry = st.just(0.0) | st.floats(1e-3, 100.0) | st.floats(-100.0, -1e-3)
    stack = draw(arrays(np.float64, (k, rows, cols), elements=entry))
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["dense", "rank1", "zero"]),
                                           min_size=k, max_size=k))):
        if kind == "rank1":
            stack[i] = np.outer(stack[i, :, 0], stack[i, 0])
        elif kind == "zero":
            stack[i] = 0.0
    return stack


@given(matrix_stacks())
@example(np.arange(2 * 3 * 7, dtype=np.float64).reshape(2, 3, 7) - 20)
@example(np.arange(2 * 7 * 3, dtype=np.float64).reshape(2, 7, 3) - 20)
@example(np.stack([np.ones((4, 4)), np.zeros((4, 4)), np.eye(4)]))
@settings(max_examples=200)
def test_spectral_norms_match_svd_within_certificate(stack):
    values, bounds = spectral_norms(stack)
    truth = np.linalg.svd(stack, compute_uv=False)[:, 0]
    for value, bound, sigma, matrix in zip(values, bounds, truth, stack):
        if not matrix.any():
            assert value == 0.0 and bound == 0.0
        else:
            assert abs(value - sigma) <= (bound + 1e-12) * sigma


def test_spectral_norm_equals_its_entry_in_a_batch():
    stack = np.random.default_rng(5).integers(-20, 21, size=(16, 32, 24))
    stack[3] = 0
    values, bounds = spectral_norms(stack)
    for i, matrix in enumerate(stack):
        if i == 3:
            continue
        est = spectral_norm(matrix)
        assert (est.value, est.relative_error_bound) == (values[i], bounds[i])


def test_verify_norm_bound_smoke():
    params = Params(n=16, t=1, m=16, epsilon=0.1)
    exceedance, summary, _ = verify_norm_bound(params, trials=64, seed=2, workers=1)
    assert exceedance["verdict"] in ("pass", "inconclusive")
    assert summary["triangle_checked"]
    assert exceedance["analytic_bound"] == pytest.approx(2 / 32)
    assert summary["mean_norms"]["stopped_sums"] > 0
    # correction norms exist because one column is stopped every round
    assert summary["mean_norms"]["correction_sums"] > 0


def test_verify_norm_bound_worker_invariance():
    params = Params(n=16, t=1, m=16, epsilon=0.1)
    a = verify_norm_bound(params, trials=128, seed=2, workers=1)
    b = verify_norm_bound(params, trials=128, seed=2, workers=3)
    assert a[0]["empirical"]["successes"] == b[0]["empirical"]["successes"]
    assert a[1]["mean_norms"] == b[1]["mean_norms"]



@st.composite
def norm_trial_cases(draw):
    n = draw(st.integers(1, 9))
    params = Params(n=n, t=draw(st.integers(0, (n - 1) // 2)), m=draw(st.integers(1, 4)))
    adversary = draw(st.sampled_from([
        StoppingStrategy.omniscient_extreme(direction=1),
        StoppingStrategy.omniscient_extreme(direction=-1),
        StoppingStrategy.first_hit(draw(st.integers(1, 3)), direction=draw(st.sampled_from([1, -1]))),
    ]))
    # chunks of 1 to 4 trials, so a block of up to 9 trials splits unevenly
    chunk_coins = draw(st.integers(1, 4)) * params.m * n * n
    return params, adversary, draw(st.integers(1, 9)), chunk_coins, draw(st.floats(0.0, 8.0))


@given(norm_trial_cases(), st.integers(0, 2**32))
@example((Params(n=7, t=2, m=5), ADV, 7, 2 * 5 * 49, 3.0), 0)
@example((Params(n=1, t=0, m=40), ADV, 9, 2 * 40, 3.0), 0)  # tall trials, a group each
@settings(max_examples=150, deadline=None)
def test_norm_trial_counter_matches_build_G_per_trial(case, seed):
    # the block engine reads whole chunks of trials at once and solves their
    # norms a group of trials at a time; it must tally what build_G gives
    # trial after trial on the same generator, float sums bit for bit, and
    # leave the generator where build_G does
    params, adversary, count, chunk_coins, scale = case
    threshold = scale * np.sqrt(params.n * params.m)
    engine, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(matrices, "_CHUNK_COINS", chunk_coins):
        tallies = matrices._norm_trial_counter(
            engine, count, 0, params_dict={"n": params.n, "t": params.t, "m": params.m},
            adversary=adversary, threshold=threshold)
    norms = []
    for _ in range(count):
        G = build_G(params, adversary, reference)
        norms.append([spectral_norms(sums[None])[0][0]
                      for sums in (G.stopped_sums, G.full_sums, G.correction_sums)])
    g, r, z = np.array(norms).T
    expected = [int(np.count_nonzero(g > threshold)), int(np.count_nonzero(r > threshold / 2)),
                int(np.count_nonzero(z > threshold / 2)), float(g.sum()), float(r.sum()),
                float(z.sum())]
    assert tallies == expected
    assert engine.bit_generator.state == reference.bit_generator.state


def _norm_tallies(params, count, seed, adversary=ADV, threshold=20.0):
    return matrices._norm_trial_counter(
        np.random.default_rng(seed), count, 0,
        params_dict={"n": params.n, "t": params.t, "m": params.m},
        adversary=adversary, threshold=threshold)


@given(arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 7), st.integers(1, 7)),
              elements=st.integers(-40, 40)),
       st.lists(st.integers(1, 11), max_size=4))
@settings(max_examples=150, deadline=None)
def test_spectral_norms_are_the_same_on_any_split_of_a_stack(stack, cuts):
    # each matrix's norm and bound are the same bits whatever else is solved
    # with it, which is what lets the norm counter solve a group at a time
    values, bounds = spectral_norms(stack, rel_tol=0.5)
    cuts = sorted({c for c in cuts if c < len(stack)})
    parts = [spectral_norms(part, rel_tol=0.5) for part in np.split(stack, cuts)]
    assert np.array_equal(np.concatenate([v for v, _ in parts]), values)
    assert np.array_equal(np.concatenate([b for _, b in parts]), bounds)


def test_norm_groups_raise_as_one_solve_would(monkeypatch):
    # a miss in the full-sum stack of group 0 and in the stopped-sum stack
    # of group 1: one solve of the block raises the stopped-sum stack's miss
    solves = []

    def missing(stack, rel_tol):
        stack_index, group = len(solves) % 3, len(solves) // 3
        solves.append((stack_index, group))
        if (stack_index, group) in ((1, 0), (0, 1)):
            raise ConvergenceError(f"stack {stack_index} group {group}", None)
        return spectral_norms(stack, rel_tol)

    monkeypatch.setattr(matrices, "spectral_norms", missing)
    params = Params(n=4, t=1, m=2)
    with mock.patch.object(matrices, "_CHUNK_COINS", 3 * params.m * params.n):
        with pytest.raises(ConvergenceError, match="stack 0 group 1"):
            _norm_tallies(params, 3, 0)


def test_a_tall_spectral_block_fits_in_a_small_budget(traced_peak):
    # 64 trials of 16384 rounds of one coin: the (3, 64, m, n) float sums of
    # the whole block would be 25 MB; a group of trials holds about a chunk
    params = Params(n=1, t=0, m=16384)
    _norm_tallies(params, 2, 0)
    _, peak = traced_peak(lambda: _norm_tallies(params, 64, 0))
    assert peak < 12 * 2**20
