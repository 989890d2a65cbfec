"""Environments: rewards, enumeration, thresholds, and the registry."""

import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg.envs import (
    ENUMERATION_BUDGET,
    TabularMdp,
    TargetMatching,
    TargetMatchingParams,
    make_env,
    solve_threshold_default,
)
from factored_pg.errors import ConfigError, EnumerationSizeError
from factored_pg.features import IndicatorFeatures
from factored_pg.oracle import EnumerableProblem, trajectory_probabilities
from factored_pg.policies import CategoricalPolicy
from factored_pg.verify import fixture_path, load_fixture


def test_target_matching_exact_match_zeroes_loss():
    env = TargetMatching(np.array([1.0, -2.0]))
    rng = np.random.default_rng(0)
    _, rewards = env.step(env.reset(env.draw_reset(rng)[None]), np.array([[1.0, -2.0]]),
                          env.draw_steps(rng, 1))
    assert rewards[0] == 0.0


def test_target_matching_hand_reward():
    env = TargetMatching(np.array([1.0, 1.0]))
    _, rewards = env.step(np.zeros((1, 1)), np.array([[0.0, 0.0]]), np.empty((1, 0)))
    assert_allclose(rewards[0], -2.0)


def test_target_matching_reward_nonpositive():
    env = TargetMatching(np.random.default_rng(3).standard_normal(5))
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal(5)
        assert env.step(np.zeros((1, 1)), a[None, :], np.empty((1, 0)))[1][0] <= 0.0


def test_target_matching_single_state():
    env = TargetMatching(np.zeros(3))
    assert_allclose(env.reset(env.draw_reset(np.random.default_rng(0))[None])[0], [0.0])
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
    paths = env.enumerate_trajectories()
    assert paths.states.shape == (6, 1) and paths.actions.shape == (6, 1, 2)


def test_enumerated_probabilities_sum_to_one():
    env = load_fixture("chain_two_step")
    policy = CategoricalPolicy.zeros(env.cardinalities, IndicatorFeatures(len(env.rho0)))
    total = np.sum(trajectory_probabilities(EnumerableProblem(env, policy)))
    assert_allclose(total, 1.0, atol=1e-12)


def _nested_walk(env):
    """Every path by nested loops: initial state, then per step the joint
    action in product order and the next state, skipping zero probabilities.
    One (states, actions, rewards, env_prob) tuple per path."""
    n = len(env.rho0)
    paths = [([], [], [], float(env.rho0[s]), s) for s in range(n) if env.rho0[s] != 0.0]
    for _ in range(env.spec.horizon):
        longer = []
        for states, actions, rewards, prob, s in paths:
            for a in itertools.product(*[range(k) for k in env.cardinalities]):
                aj = np.ravel_multi_index(a, env.cardinalities)
                for s2 in range(n):
                    p = float(env.transitions[s, aj, s2])
                    if p != 0.0:
                        longer.append((states + [s], actions + [list(a)],
                                       rewards + [env.rewards[s, aj]], prob * p, s2))
        paths = longer
    return [path[:4] for path in paths]


def _discounted_mdp_with_zeros():
    rng = np.random.default_rng(29)
    transitions = rng.dirichlet(np.ones(3), size=(3, 6))
    transitions[rng.random(transitions.shape) < 0.3] = 0.0
    transitions[:, :, 1] += 0.125  # every row keeps a nonzero entry
    transitions /= transitions.sum(axis=2, keepdims=True)
    return TabularMdp(transitions, rng.standard_normal((3, 6)), [0.625, 0.0, 0.375], (2, 3),
                      horizon=3, gamma=0.9)


@pytest.mark.parametrize("make", [lambda: load_fixture("chain_two_step"),
                                  _discounted_mdp_with_zeros],
                         ids=["chain_two_step", "discounted_with_zeros"])
def test_enumeration_follows_the_nested_walk_row_for_row(make):
    # the oracle's float sums and first-seen table keys follow this row order
    env = make()
    assert np.any(env.transitions == 0.0)
    walk = _nested_walk(env)
    table = env.enumerate_trajectories()
    states, actions, rewards, env_prob = (np.array(column) for column in zip(*walk))
    assert table.states.shape == (len(walk), env.spec.horizon)
    assert np.array_equal(table.states, states)
    assert np.array_equal(table.actions, actions)
    assert table.rewards.tobytes() == rewards.tobytes()
    assert table.env_prob.tobytes() == env_prob.tobytes()


def test_enumeration_over_budget_raises_before_building_a_path():
    # state 0 loops on itself, so there is one path at any horizon; the
    # unreachable state 1 branches in two, and the bound
    # |S| (joint actions x widest branching)^T = 2 * 2^T counts it
    def env(horizon):
        return TabularMdp([[[1.0, 0.0]], [[0.5, 0.5]]], np.zeros((2, 1)), [1.0, 0.0], (1,),
                          horizon)

    assert 2 * 2**18 <= ENUMERATION_BUDGET < 2 * 2**19
    assert env(18).enumerate_trajectories().states.shape == (1, 18)
    with pytest.raises(EnumerationSizeError, match="bound 1048576 exceeds"):
        env(19).enumerate_trajectories()


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
    rng = np.random.default_rng(0)
    s = env.reset(env.draw_reset(rng)[None])[0]
    assert s.shape == (4,)
    following, rewards = env.step(s[None, :], np.array([[0.3, -0.2]]), env.draw_steps(rng, 1))
    assert following[0].shape == (4,)
    assert rewards[0] <= 0.0
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
    states = env.reset(env.draw_reset(np.random.default_rng(0))[None])
    for actions in (np.zeros(m), np.zeros((1, m + 1))):
        with pytest.raises(ValueError, match=rf"\(n, {m}\) rows"):
            env.step(states, actions, env.draw_steps(np.random.default_rng(1), 1))
