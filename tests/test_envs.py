"""Environments: rewards, enumeration, thresholds, and the registry."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.envs import (
    TabularMdp,
    TargetMatching,
    TargetMatchingParams,
    make_env,
    solve_threshold_default,
)
from factored_pg.errors import ConfigError
from factored_pg.features import IndicatorFeatures
from factored_pg.policies import CategoricalPolicy
from factored_pg.verify import fixture_path, load_fixture


def test_target_matching_exact_match_zeroes_loss():
    env = TargetMatching(np.array([1.0, -2.0]))
    rngs = [np.random.default_rng(0)]
    step = env.step(env.reset(rngs), np.array([[1.0, -2.0]]), rngs)
    assert step.rewards[0] == 0.0
    assert step.terminal[0]


def test_target_matching_hand_reward():
    env = TargetMatching(np.array([1.0, 1.0]))
    step = env.step(np.zeros((1, 1)), np.array([[0.0, 0.0]]), [None])
    assert_allclose(step.rewards[0], -2.0)


def test_target_matching_reward_nonpositive():
    env = TargetMatching(np.random.default_rng(3).standard_normal(5))
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal(5)
        assert env.step(np.zeros((1, 1)), a[None, :], [None]).rewards[0] <= 0.0


def test_target_matching_single_state():
    env = TargetMatching(np.zeros(3))
    assert_allclose(env.reset([np.random.default_rng(0)])[0], [0.0])
    assert env.spec.horizon == 1
    assert env.spec.n_factors == 3


def test_target_matching_random_target_seeded():
    a = TargetMatchingParams(m=4, target_seed=12).build()
    b = TargetMatchingParams(m=4, target_seed=12).build()
    assert_allclose(a.target, b.target)


def test_solve_threshold_table_and_fallback():
    assert solve_threshold_default(12) == -0.01
    assert solve_threshold_default(100) == -0.25
    assert solve_threshold_default(400) == -0.99
    assert solve_threshold_default(2000) == -4.96
    assert_allclose(solve_threshold_default(50), -0.125)  # -0.0025 * m


def test_tabular_transition_rows_are_distributions():
    env = load_fixture("chain_two_step")
    assert np.all(env.transitions >= 0)
    assert_allclose(env.transitions.sum(axis=2), 1.0, atol=1e-12)


def test_bandit_enumeration_count():
    # single state, factors 2 x 3, horizon 1: one trajectory per joint action
    env = load_fixture("bandit_two_factor")
    assert len(env.enumerate_trajectories()) == 6


def test_enumerated_probabilities_sum_to_one():
    env = load_fixture("chain_two_step")
    policy = CategoricalPolicy.zeros(env.cardinalities, IndicatorFeatures(len(env.rho0)))
    total = sum(et.probability(policy) for et in env.enumerate_trajectories())
    assert_allclose(total, 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.update(rho0=[1.5, -0.5, 0.0]), "probabilities"),
        (lambda d: d["rewards"][0].__setitem__(1, float("nan")), "finite"),
        (lambda d: d.pop("horizon"), "horizon"),
        (lambda d: d.update(factor_cardinalities=[2, 3]), r"\(3, 6, 3\)"),
        (lambda d: d.update(horizon="3"), "horizon"),
        (lambda d: d.update(factor_cardinalities=[-2, -2]), "cardinalities"),
    ],
)
def test_tabular_from_dict_rejects_malformed_fixture(mutate, match):
    with open(fixture_path("chain_two_step")) as fh:
        data = json.load(fh)
    mutate(data)
    with pytest.raises(ConfigError, match=match):
        TabularMdp.from_dict(data)


def test_fixture_files_ship_with_package():
    for name in ("bandit_two_arm", "bandit_two_factor", "chain_two_step"):
        assert fixture_path(name).endswith(".json")
        assert load_fixture(name).cardinalities


def test_point_mass_shapes_and_cost_sign():
    env = make_env("point_mass")
    rngs = [np.random.default_rng(0)]
    s = env.reset(rngs)[0]
    assert s.shape == (4,)
    step = env.step(s[None, :], np.array([[0.3, -0.2]]), rngs)
    assert step.states[0].shape == (4,)
    assert step.rewards[0] <= 0.0
    assert not step.terminal[0]
    assert env.spec.horizon == 100


def test_make_env_registry_and_errors():
    env = make_env("target_matching", {"m": 3})
    assert env.spec.n_factors == 3 and env.target.shape == (3,)
    with pytest.raises(ValueError) as err:
        make_env("no_such_env")
    assert "target_matching" in str(err.value)


def test_make_env_seeded_target():
    a = make_env("target_matching", {"m": 4, "target_seed": 5})
    b = make_env("target_matching", {"m": 4, "target_seed": 5})
    assert_allclose(a.target, b.target)
    assert_allclose(a.target, np.random.default_rng([5]).standard_normal(4))
    assert not np.allclose(a.target, make_env("target_matching", {"m": 4}).target)


def test_make_env_rejects_misspelt_param():
    with pytest.raises(ConfigError, match="horizn"):
        make_env("point_mass", {"horizn": 5})


@pytest.mark.parametrize("content, match", [(None, "No such file"), ("{not json", "not valid JSON")])
def test_unreadable_tabular_fixture_is_config_error(tmp_path, content, match):
    path = tmp_path / "fixture.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ConfigError, match=match) as err:
        make_env("tabular", {"path": str(path)})
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "name, params",
    [("target_matching", {"m": 3}), ("point_mass", {"horizon": 5}),
     ("tabular", {"path": fixture_path("chain_two_step")})],
)
def test_step_takes_one_row_of_factors_per_trajectory(name, params):
    env = make_env(name, params)
    m = env.spec.n_factors
    states = env.reset([np.random.default_rng(0)])
    for actions in (np.zeros(m), np.zeros((1, m + 1))):
        with pytest.raises(ValueError, match=rf"\(n, {m}\) rows"):
            env.step(states, actions, [np.random.default_rng(1)])
