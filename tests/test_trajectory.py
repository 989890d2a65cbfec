"""Batch container and return computations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.trajectory import Batch, returns_to_go


def _path(rewards, m=2):
    T = len(rewards)
    return np.zeros((T, 1)), np.zeros((T, m)), np.asarray(rewards, dtype=float)


def test_returns_to_go_hand_example():
    # gamma 0.5, rewards (0, 0, 8): tail sums (2, 4, 8).
    assert_allclose(returns_to_go(np.array([0.0, 0.0, 8.0]), 0.5), [2.0, 4.0, 8.0])


def test_returns_to_go_undiscounted_is_reversed_cumsum():
    r = np.array([1.0, 2.0, 3.0])
    assert_allclose(returns_to_go(r, 1.0), [6.0, 5.0, 3.0])


def test_returns_to_go_single_step():
    assert_allclose(returns_to_go(np.array([-4.0]), 0.9), [-4.0])


@pytest.mark.parametrize(
    "make",
    [
        # a path whose states, actions and rewards disagree in length
        lambda: Batch.from_paths(
            [(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(3))], gamma=1.0
        ),
        # flat arrays that disagree in row count
        lambda: Batch(np.zeros((3, 1)), np.zeros((4, 1)), np.zeros(4), 2, gamma=1.0),
        # trajectories of no step
        lambda: Batch(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0), 2, gamma=1.0),
        # two consistent paths of different lengths
        lambda: Batch.from_paths([_path([1.0, 2.0]), _path([3.0])], gamma=1.0),
        # six rows for four trajectories: 6 is not a multiple of 4
        lambda: Batch(np.zeros((6, 1)), np.zeros((6, 1)), np.zeros(6), 4, gamma=1.0),
    ],
    ids=["path_lengths", "row_count", "zero_length", "unequal_paths", "rows_not_a_multiple"],
)
def test_batch_rejects_inconsistent_lengths(make):
    with pytest.raises(ValueError):
        make()


def test_batch_layout_and_per_trajectory_views():
    batch = Batch.from_paths([_path([1.0, 2.0]), _path([3.0, 4.0])], gamma=0.5)
    assert batch.n_trajectories == 2
    assert batch.horizon == 2
    assert batch.n_steps == 4
    assert_allclose(batch.starts, [0, 2])
    assert_allclose(batch.by_trajectory(batch.rewards), [[1.0, 2.0], [3.0, 4.0]])
    assert batch.by_trajectory(batch.actions).shape == (2, 2, 2)
    assert_allclose(batch.qhat, [2.0, 2.0, 5.0, 4.0])
    assert_allclose(batch.gamma_pow, [1.0, 0.5, 1.0, 0.5])
    assert_allclose(batch.totals, [3.0, 7.0])
    assert_allclose(batch.weights, [0.5, 0.5])


def test_batch_return_statistics():
    batch = Batch.from_paths([_path([1.0, 1.0]), _path([4.0, 0.0])], gamma=1.0)
    assert_allclose(batch.mean_return(), 3.0)
    # sample sd over totals (2, 4) with ddof=1
    assert_allclose(batch.sd_return(), np.sqrt(2.0))
    assert Batch.from_paths([_path([1.0])], gamma=1.0).sd_return() == 0.0


def test_batch_explicit_weights_checked():
    with pytest.raises(ValueError):
        Batch.from_paths([_path([1.0])], gamma=1.0, weights=np.array([0.5, 0.5]))


def test_batch_requires_at_least_one_trajectory():
    with pytest.raises(ValueError):
        Batch.from_paths([], gamma=1.0)


def test_batch_totals_equal_per_trajectory_sums_bit_for_bit():
    """Totals are the row sums of the (n, horizon) reward block; every row
    must keep the pairwise order of np.sum over that trajectory alone."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        horizon = rng.choice([1, 2, 3, 7, 8, 9, 16, 100, 127, 128, 129, 257, 300])
        n = rng.integers(1, 12)
        rewards = rng.standard_normal(n * horizon) * 10.0 ** rng.integers(-3, 4, n * horizon)
        batch = Batch(np.zeros((len(rewards), 1)), np.zeros((len(rewards), 1)), rewards,
                      n, gamma=1.0)
        expected = [np.sum(rewards[k * horizon:(k + 1) * horizon]) for k in range(n)]
        assert batch.totals.tolist() == expected
