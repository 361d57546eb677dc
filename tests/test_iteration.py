import numpy as np
import pytest

from coinlab.bounds import Params, derive
from coinlab.iteration import (
    IterationConfig,
    run_agreement,
    run_iteration,
)

BASE = IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=5)


def test_config_validation():
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=30)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, t_excluded=4)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, t_stopped=-1)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, ambiguous_allowance=4)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, adversary_direction=0)
    with pytest.raises(ValueError):
        IterationConfig(n=60, t=3, bad_contribution=200)


def test_ambiguous_allowance_defaults_to_t():
    assert IterationConfig(n=60, t=3).ambiguous_allowance == 3
    assert IterationConfig(n=60, t=3, ambiguous_allowance=1).ambiguous_allowance == 1
    assert IterationConfig(n=60, t=0).ambiguous_allowance == 0


def test_stream_layout_counts():
    record = run_iteration(BASE, 0)
    assert record.complete_streams.shape == (54, 60)
    assert record.excluded_streams.shape == (1, 60)
    assert record.stopped_streams.shape == (2, 60)
    assert len(record.stop_indices) == 2
    assert BASE.complete_count == 54


def test_total_is_additive():
    for i in range(50):
        record = run_iteration(BASE, i)
        rebuilt = (record.core_sum + record.excluded_sum + record.stopped_sum
                   + record.ambiguous_term + record.bad_contribution)
        assert record.total == rebuilt


def test_components_rederivable_from_streams():
    record = run_iteration(BASE, 7)
    assert record.core_sum == int(record.complete_streams.sum())
    assert record.excluded_sum == int(record.excluded_streams.sum())
    stopped = 0
    for row, k in zip(record.stopped_streams, record.stop_indices):
        prefix = np.cumsum(row)
        stopped += int(prefix[k - 1]) if k >= 1 else 0
    assert record.stopped_sum == stopped


def test_stopped_values_are_running_minima():
    # adversary direction +1: stops pick the running minimum of each stream
    record = run_iteration(BASE, 3)
    for row, k in zip(record.stopped_streams, record.stop_indices):
        prefix = np.cumsum(row)
        value = int(prefix[k - 1]) if k >= 1 else 0
        assert value == int(prefix.min())


def test_ambiguous_term_opposes_adversary_direction():
    up = run_iteration(IterationConfig(n=60, t=3, seed=1), 0)
    down = run_iteration(IterationConfig(n=60, t=3, adversary_direction=-1, seed=1), 0)
    assert up.ambiguous_term == -3
    assert down.ambiguous_term == +3


def test_excluded_cap_semantics():
    seen_binding = False
    for i in range(300):
        record = run_iteration(IterationConfig(n=16, t=5, t_excluded=5, seed=2), i)
        cap = record.beta_quarter
        assert abs(record.excluded_capped) <= cap + 1e-12
        if record.excluded_cap_binds:
            seen_binding = True
            assert abs(record.excluded_sum) > cap
            assert record.excluded_capped == pytest.approx(
                np.sign(record.excluded_sum) * cap)
        else:
            assert record.excluded_capped == record.excluded_sum
        # the raw value, not the capped view, enters the total
        rebuilt = (record.core_sum + record.excluded_sum + record.stopped_sum
                   + record.ambiguous_term + record.bad_contribution)
        assert record.total == rebuilt
    assert seen_binding  # 5 streams of 16 coins exceed beta/4 ~ 6.7 sometimes


def test_coin_sign_convention():
    for i in range(100):
        record = run_iteration(BASE, i)
        assert record.coin == (+1 if record.total >= 0 else -1)


def test_good_event_reads_only_the_core():
    thresholds = derive(Params(n=60, t=3))
    for i in range(100):
        record = run_iteration(BASE, i)
        assert record.alpha_prime == pytest.approx(thresholds.alpha_prime)
        assert record.good_event == (record.core_sum >= thresholds.alpha_prime)


def test_good_event_direction_flip():
    config = IterationConfig(n=60, t=3, adversary_direction=-1, seed=9)
    for i in range(100):
        record = run_iteration(config, i)
        assert record.good_event == (record.core_sum <= -record.alpha_prime)


def test_good_event_invariant_to_behavioral_knobs():
    variants = [
        IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=5,
                        ambiguous_allowance=0),
        IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=5,
                        bad_contribution=-180),
        IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2, seed=5,
                        ambiguous_allowance=2, bad_contribution=90),
    ]
    for i in range(120):
        base_event = run_iteration(BASE, i).good_event
        for variant in variants:
            assert run_iteration(variant, i).good_event == base_event


def test_iterations_are_independent_substreams():
    a = run_iteration(BASE, 0)
    b = run_iteration(BASE, 1)
    assert not np.array_equal(a.complete_streams, b.complete_streams)
    # and reproducible
    again = run_iteration(BASE, 0)
    assert np.array_equal(a.complete_streams, again.complete_streams)
    assert a.total == again.total


def test_agreement_no_adversary_terminates_fast():
    result = run_agreement(IterationConfig(n=60, t=0, seed=5), 1000, keep_records=False)
    assert result.agreed
    assert result.iterations_used <= 100
    assert result.records == ()


def test_agreement_success_iteration_matches_good_event():
    # with t=0 every deviation source is empty, so success on iteration i
    # is exactly the good event on iteration i
    config = IterationConfig(n=60, t=0, seed=11)
    result = run_agreement(config, 1000)
    i = result.iterations_used - 1
    for j in range(i):
        assert not run_iteration(config, j).good_event
    assert run_iteration(config, i).good_event


def test_agreement_budget_exhaustion():
    # direction -1 with a huge positive bad contribution keeps the total
    # positive, so the coin never matches the adversary-opposing direction
    config = IterationConfig(n=9, t=4, adversary_direction=-1,
                             bad_contribution=36, seed=3)
    result = run_agreement(config, 5, keep_records=True)
    assert result.iterations_used == 5
    assert len(result.records) == 5
    if not result.agreed:
        assert all(
            not (r.coin == -1 and abs(r.total) >= r.alpha_prime)
            for r in result.records
        )
