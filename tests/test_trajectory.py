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
        # flat rows that do not add up to the trajectory lengths
        lambda: Batch(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(3), [2, 2], gamma=1.0),
        # a zero-length trajectory
        lambda: Batch(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(2), [2, 0], gamma=1.0),
    ],
    ids=["path_lengths", "row_count", "zero_length"],
)
def test_batch_rejects_inconsistent_lengths(make):
    with pytest.raises(ValueError):
        make()


def test_batch_layout_and_per_trajectory_views():
    batch = Batch.from_paths([_path([1.0, 2.0]), _path([3.0])], gamma=0.5)
    assert batch.n_trajectories == 2
    assert batch.n_steps == 3
    assert batch.traj_slice(0) == slice(0, 2)
    assert batch.traj_slice(1) == slice(2, 3)
    assert_allclose(batch.qhat, [2.0, 2.0, 3.0])
    assert_allclose(batch.gamma_pow, [1.0, 0.5, 1.0])
    assert_allclose(batch.t_index, [0, 1, 0])
    assert_allclose(batch.traj_index, [0, 0, 1])
    assert_allclose(batch.weights, [0.5, 0.5])


def test_batch_return_statistics():
    batch = Batch.from_paths([_path([1.0, 1.0]), _path([4.0])], gamma=1.0)
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
    """Totals sum each length group as rows of one array; every row must keep
    the pairwise order of np.sum over that trajectory alone."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        lengths = rng.choice([1, 2, 3, 7, 8, 9, 16, 100, 127, 128, 129, 257, 300],
                             size=rng.integers(1, 12))
        rewards = rng.standard_normal(lengths.sum()) * 10.0 ** rng.integers(-3, 4, lengths.sum())
        batch = Batch(np.zeros((len(rewards), 1)), np.zeros((len(rewards), 1)), rewards,
                      lengths, gamma=1.0)
        expected = [np.sum(rewards[batch.traj_slice(k)]) for k in range(len(lengths))]
        assert batch.totals.tolist() == expected
