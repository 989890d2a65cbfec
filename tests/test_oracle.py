"""Exact-enumeration oracles checked against closed forms and each other."""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factored_pg import oracle
from factored_pg.envs import TabularMdp
from factored_pg.errors import NotEnumerableError, ZeroScoreNormError
from factored_pg.oracle import (
    ORACLE_BASELINE_KINDS,
    EnumerableProblem,
    exact_eta,
    exact_gradient,
    exact_optimal_baselines,
    exact_pg_expectation,
    exact_q_table,
    exact_state_values,
    exact_variance,
    improvement_over_optimal,
    make_oracle_baseline,
    state_baseline_gap,
    trajectory_probabilities,
    zy_tables,
)
from factored_pg.features import IndicatorFeatures
from factored_pg.policies import CategoricalPolicy, IndependentGaussianPolicy
from factored_pg.verify import FIXTURE_NAMES, all_problems, fixture_problem, load_fixture


def test_uniform_policy_eta_is_mean_reward():
    # one-step bandit, uniform over the 6 joint arms: eta = mean of the rewards
    env = load_fixture("bandit_two_factor")
    uni = CategoricalPolicy.zeros(list(env.cardinalities), IndicatorFeatures(len(env.rho0)))
    assert_allclose(exact_eta(EnumerableProblem(env, uni)), 0.5833333333333334, atol=1e-14)


def test_two_arm_bandit_closed_form():
    # logits (0.2, -0.6) => p0 = sigmoid(0.8); rewards (1, 0) => eta = p0 and
    # d eta / d logits = p0 (1 - p0) (1, -1)
    problem = fixture_problem("bandit_two_arm")
    p0 = 1.0 / (1.0 + np.exp(-0.8))
    assert_allclose(exact_eta(problem), p0, atol=1e-14)
    assert_allclose(exact_gradient(problem), p0 * (1 - p0) * np.array([1.0, -1.0]), atol=1e-14)


def test_trajectory_probabilities_sum_to_one():
    for name, problem in all_problems():
        probs = trajectory_probabilities(problem)
        assert np.all(probs >= 0), name
        assert_allclose(probs.sum(), 1.0, atol=1e-12, err_msg=name)


def test_exact_gradient_matches_finite_differences_of_eta():
    for name in FIXTURE_NAMES:
        problem = fixture_problem(name)
        grad = exact_gradient(problem)
        theta = problem.policy.theta
        h = 1e-6
        for j in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd = (exact_eta(problem.with_theta(up)) - exact_eta(problem.with_theta(dn))) / (2 * h)
            assert_allclose(grad[j], fd, rtol=1e-6, atol=1e-9, err_msg=f"{name}[{j}]")


def test_estimator_expectation_is_gradient_for_every_baseline():
    problem = fixture_problem("chain_two_step")
    grad = exact_gradient(problem)
    for kind in ("none", "state_value", "optimal_state", "optimal_action", "marginalized_q"):
        baseline = make_oracle_baseline(problem, kind)
        assert_allclose(exact_pg_expectation(problem, baseline), grad, atol=1e-12, err_msg=kind)


def test_q_table_and_state_values_consistent():
    problem = fixture_problem("bandit_two_arm")
    q = exact_q_table(problem)
    v = exact_state_values(problem)
    # one-step bandit: qhat is the immediate reward, V = E_a[Q]
    assert_allclose(q[(0, (0,))], 1.0, atol=1e-14)
    assert_allclose(q[(0, (1,))], 0.0, atol=1e-14)
    p0 = 1.0 / (1.0 + np.exp(-0.8))
    assert_allclose(v[0], p0, atol=1e-14)


def test_zy_tables_structure():
    for name, problem in all_problems():
        zy = zy_tables(problem)
        weights = {}
        for (i, s, key), (w, z, y) in zy.items():
            assert w > 0 and z > 0, name
            weights[i] = weights.get(i, 0.0) + w
        for i, tot in weights.items():
            assert_allclose(tot, 1.0, atol=1e-12, err_msg=f"{name} factor {i}")


def test_optimal_action_baseline_is_y_over_z():
    problem = fixture_problem("bandit_two_factor")
    zy = zy_tables(problem)
    table = exact_optimal_baselines(problem).action
    for key, (_, z, y) in zy.items():
        assert_allclose(table[key], y / z, atol=1e-14)


def test_variance_decomposition_identity():
    # two routes to the total trace variance share no intermediate sums
    for name, problem in all_problems():
        # the per-sample mean carries the visitation normalization 1 / sum_t gamma^t
        norm = sum(problem.gamma**t for t in range(problem.env.spec.horizon))
        for kind in ("none", "optimal_state"):
            var = exact_variance(problem, make_oracle_baseline(problem, kind))
            assert_allclose(var.decomposition_total, var.total, rtol=1e-12, atol=1e-12,
                            err_msg=f"{name}/{kind}")
            assert_allclose(var.mean * norm, exact_gradient(problem), atol=1e-12)


def test_improvement_formula_equals_direct_variance_difference():
    problem = fixture_problem("chain_two_step")
    opt = exact_variance(problem, make_oracle_baseline(problem, "optimal_action")).total
    for kind in ("none", "state_value", "optimal_state"):
        baseline = make_oracle_baseline(problem, kind)
        direct = exact_variance(problem, baseline).total - opt
        assert_allclose(improvement_over_optimal(problem, baseline), direct,
                        rtol=1e-10, atol=1e-10, err_msg=kind)


def test_improvement_nonnegative_and_zero_at_optimum():
    for name, problem in all_problems():
        for kind in ORACLE_BASELINE_KINDS:
            excess = improvement_over_optimal(problem, make_oracle_baseline(problem, kind))
            assert excess >= -1e-12, f"{name}/{kind}"
        # optimal_action conditions on exactly a^{-i}, so it is the zero-excess optimum
        assert_allclose(
            improvement_over_optimal(problem, make_oracle_baseline(problem, "optimal_action")),
            0.0, atol=1e-10, err_msg=name)


def test_state_baseline_gap_matches_direct_route():
    for name, problem in all_problems():
        direct = improvement_over_optimal(problem, make_oracle_baseline(problem, "optimal_state"))
        assert_allclose(state_baseline_gap(problem), direct, rtol=1e-12, atol=1e-12, err_msg=name)


def test_variance_ordering_across_baselines():
    for name in FIXTURE_NAMES:
        problem = fixture_problem(name)
        totals = {
            kind: exact_variance(problem, make_oracle_baseline(problem, kind)).total
            for kind in ("none", "state_value", "optimal_state", "optimal_action")
        }
        assert totals["optimal_action"] <= totals["optimal_state"] + 1e-10, name
        assert totals["optimal_state"] <= totals["state_value"] + 1e-10, name
        assert totals["optimal_state"] <= totals["none"] + 1e-10, name


def test_zero_score_factor_raises_for_optimal_baselines_and_is_skipped_in_excess():
    # factor 1 has a single category, so its score is identically zero
    env = TabularMdp(np.ones((1, 2, 1)), [[1.0, -1.0]], [1.0], (2, 1), horizon=1)
    policy = CategoricalPolicy([np.array([[0.3], [-0.2]]), np.zeros((1, 1))], IndicatorFeatures(1))
    problem = EnumerableProblem(env, policy)
    with pytest.raises(ZeroScoreNormError, match="factor 1"):
        exact_optimal_baselines(problem)
    _, z, y = zy_tables(problem)[(0, 0, (0,))]

    def best(i, s, a):
        return y / z if i == 0 else 0.0

    none = make_oracle_baseline(problem, "none")
    direct = exact_variance(problem, none).total - exact_variance(problem, best).total
    assert direct > 0.01
    assert_allclose(improvement_over_optimal(problem, none), direct, atol=1e-12)
    assert_allclose(improvement_over_optimal(problem, best), 0.0, atol=1e-14)


def test_excess_routes_build_one_visitation_table(monkeypatch):
    problem = fixture_problem("chain_two_step")
    baseline = make_oracle_baseline(problem, "state_value")
    built = []
    visits = oracle._visits
    monkeypatch.setattr(oracle, "_visits", lambda p: built.append(p) or visits(p))
    improvement_over_optimal(problem, baseline)
    assert len(built) == 1
    state_baseline_gap(problem)
    assert len(built) == 2


def test_oracle_imports_nothing_from_the_training_path():
    # the oracle is the independent second way of computing each quantity
    forbidden = ("estimator", "baselines", "features", "optim", "harness")
    names = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{alias.name}".strip(".") for alias in node.names)
    names = {name.removeprefix("factored_pg.") for name in names}
    bad = {n for n in names if n.split(".")[0] in forbidden or n == "trajectory.Batch"}
    assert "trajectory.returns_to_go" in names and not bad


def test_gaussian_policy_not_enumerable():
    env = load_fixture("bandit_two_arm")
    with pytest.raises(NotEnumerableError):
        EnumerableProblem(env, IndependentGaussianPolicy.zeros(1, 1))


def test_unknown_baseline_kind_rejected():
    problem = fixture_problem("bandit_two_arm")
    with pytest.raises(ValueError):
        make_oracle_baseline(problem, "quantum")
