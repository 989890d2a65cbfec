"""Self-checking property suite over the committed enumerable fixtures.

Each check computes a quantity two independent ways (closed form vs brute
force, analytic vs finite difference, sampled vs exact) and passes only when
they agree at tight tolerances. The CLI ``verify`` subcommand runs the whole
list; the test suite reuses the same functions so a green ``verify`` and a
green test run certify the same math. The single-sample reference
marginalizations that the batched ``baselines.marginal`` is tested against, and
the one-trajectory-at-a-time rollout that the lockstep one is tested against,
live here too.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

import numpy as np

from .envs import TabularMdp
from .errors import ZeroScoreNormError
from .estimator import gae_advantages
from .features import IndicatorFeatures, RawFeatures
from .optim import STREAM_ENV, STREAM_POLICY, substream
from .oracle import (
    ORACLE_BASELINE_KINDS,
    EnumerableProblem,
    exact_eta,
    exact_gradient,
    exact_optimal_baselines,
    exact_pg_expectation,
    exact_variance,
    improvement_over_optimal,
    make_oracle_baseline,
    state_baseline_gap,
)
from .policies import CategoricalPolicy, IndependentGaussianPolicy
from .trajectory import Batch

FIXTURE_NAMES = ("bandit_two_arm", "bandit_two_factor", "chain_two_step")

# hand-set, deliberately nonuniform logits for each fixture's test policy
_FIXTURE_LOGITS = {
    "bandit_two_arm": [[[0.2], [-0.6]]],
    "bandit_two_factor": [[[0.4], [-0.2]], [[0.1], [0.7], [-0.5]]],
    "chain_two_step": [
        [[0.3, -0.2, 0.5], [-0.1, 0.4, 0.0]],
        [[0.0, 0.6, -0.3], [0.2, -0.4, 0.1]],
    ],
}


def fixture_path(name: str) -> str:
    res = importlib.resources.files("factored_pg").joinpath("fixtures", f"{name}.json")
    return str(res)


def load_fixture(name: str) -> TabularMdp:
    return TabularMdp.from_json(fixture_path(name))


def fixture_problem(name: str) -> EnumerableProblem:
    env = load_fixture(name)
    policy = CategoricalPolicy(
        [np.array(w, dtype=float) for w in _FIXTURE_LOGITS[name]],
        IndicatorFeatures(len(env.rho0)),
    )
    return EnumerableProblem(env, policy)


def all_problems():
    return [(name, fixture_problem(name)) for name in FIXTURE_NAMES]


# ---------------------------------------------------------------------------
# reference rollout: one trajectory at a time, environment and policy called
# on one-row arrays with noise drawn one step at a time


def reference_collect_batch(env, policy, n_trajectories: int, seed: int, iteration: int) -> Batch:
    """What ``optim.collect_batch`` returns, built trajectory by trajectory
    from generators that ``substream`` builds, drawing each step's noise as
    the step needs it."""
    paths = []
    for k in range(n_trajectories):
        env_rng = substream(seed, STREAM_ENV, iteration, k)
        policy_rng = substream(seed, STREAM_POLICY, iteration, k)
        states, actions, rewards = [], [], []
        state = env.reset(env.draw_reset(env_rng)[None])
        for _ in range(env.spec.horizon):
            action = policy.sample(state, policy.draw(policy_rng, 1))
            states.append(state[0])
            actions.append(action[0])
            state, reward = env.step(state, action, env.draw_steps(env_rng, 1))
            rewards.append(reward[0])
        paths.append((np.array(states), np.array(actions), np.array(rewards)))
    return Batch.from_paths(paths, gamma=env.spec.gamma)


# ---------------------------------------------------------------------------
# reference single-sample marginalizations (vectorized paths must match these);
# the policy's batched methods are called on one-row arrays


def _swap(actions: np.ndarray, i: int, value) -> np.ndarray:
    """A copy with factor i set to ``value``; one action or a batch of them."""
    out = actions.copy()
    out[..., i] = value
    return out


def mc_marginalized_baseline(
    q,
    policy,
    state,
    action,
    i: int,
    n_samples: int = 10,
    rng: np.random.Generator | None = None,
    exact: bool = False,
) -> float:
    """Marginalize factor i out of Q by resampling it from the policy.

    ``q`` is any callable (state, action) -> real. The candidates never depend
    on the sampled a^i, so the result is a valid baseline. With ``exact`` the
    average runs over a categorical factor's full support with its exact
    probabilities.
    """
    action = np.asarray(action, dtype=float)
    if exact:
        if policy.kind != "categorical":
            raise ValueError("exact marginalization requires a categorical factor")
        values = [q(state, _swap(action, i, v)) for v in range(policy.cardinalities[i])]
        return float(np.dot(policy.factor_probs(np.atleast_2d(state), i)[0], values))
    if rng is None:
        raise ValueError("rng required for sampled marginalization")
    draws = policy.sample_factor(np.atleast_2d(state), i, n_samples, rng)[0]
    return float(np.mean([q(state, _swap(action, i, v)) for v in draws]))


def mean_marginalized_baseline(q, policy, state, action, i: int) -> float:
    """Evaluate Q with factor i replaced by its policy mean.

    Defined for continuous factors only: the expected value of a categorical
    factor is a probability vector, not an action; use exact marginalization
    there instead. For Q linear in the action this equals full marginalization.
    """
    if policy.kind != "gaussian":
        raise ValueError(
            "mean substitution requires a continuous factor; "
            "use exact marginalization for categorical factors"
        )
    mean = policy.mean_actions(np.atleast_2d(state))[0, i]
    return float(q(state, _swap(np.asarray(action, dtype=float), i, mean)))


def optimal_action_baseline(
    q,
    policy,
    state,
    action,
    i: int,
    n_samples: int = 10,
    rng: np.random.Generator | None = None,
) -> float:
    """Score-norm-weighted marginalization E[z_i'z_i Q] / E[z_i'z_i] over a^i.

    Uses the exact support sum for categorical factors and a shared-draw Monte
    Carlo ratio (same draws in numerator and denominator) for continuous ones.
    """
    action = np.asarray(action, dtype=float)
    states = np.atleast_2d(state)
    if policy.kind == "categorical":
        values, weights = range(policy.cardinalities[i]), policy.factor_probs(states, i)[0]
    else:
        if rng is None:
            raise ValueError("rng required for the continuous-factor ratio estimator")
        values = policy.sample_factor(states, i, n_samples, rng)[0]
        weights = np.ones(len(values))
    num = den = 0.0
    for v, w in zip(values, weights):
        swapped = _swap(action, i, v)
        z_i = policy.score_matrix(states, swapped[None, :])[0, policy.block_slices[i]]
        zsq = float(np.sum(z_i**2))
        num += float(w) * zsq * q(state, swapped)
        den += float(w) * zsq
    if den <= 0.0:
        raise ZeroScoreNormError(f"factor {i} has vanishing score norm; ratio undefined")
    return num / den



@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# checks


def check_unbiasedness(tol: float = 1e-10) -> CheckResult:
    """Estimator expectation equals the brute-force gradient for every
    baseline kind on every fixture."""
    worst = 0.0
    worst_case = ""
    for name, problem in all_problems():
        grad = exact_gradient(problem)
        for kind in ORACLE_BASELINE_KINDS:
            baseline = make_oracle_baseline(problem, kind)
            err = float(np.max(np.abs(exact_pg_expectation(problem, baseline) - grad)))
            if err > worst:
                worst, worst_case = err, f"{name}/{kind}"
    return CheckResult(
        "estimator-unbiasedness",
        worst <= tol,
        f"max |E[estimate] - grad| = {worst:.3e} ({worst_case}), tol {tol:g}",
    )


def check_variance_ordering(tol: float = 1e-10) -> CheckResult:
    """Optimal action-dependent <= optimal state <= {fitted state value, none};
    strictly better than state-only where the reward varies in each factor."""
    failures = []
    strict_gap = 0.0
    for name, problem in all_problems():
        v = {
            kind: exact_variance(problem, make_oracle_baseline(problem, kind)).total
            for kind in ("none", "state_value", "optimal_state", "optimal_action")
        }
        if not v["optimal_action"] <= v["optimal_state"] + tol:
            failures.append(f"{name}: action {v['optimal_action']:.6g} > state {v['optimal_state']:.6g}")
        if not v["optimal_state"] <= v["state_value"] + tol:
            failures.append(f"{name}: optimal state beats fitted value violated")
        if not v["optimal_state"] <= v["none"] + tol:
            failures.append(f"{name}: optimal state beats no-baseline violated")
        if name == "bandit_two_factor":
            strict_gap = v["optimal_state"] - v["optimal_action"]
    if strict_gap <= tol:
        failures.append(f"no strict action-vs-state gap: {strict_gap:.3e}")
    detail = f"orderings hold on all fixtures; strict gap {strict_gap:.6g}"
    if failures:
        detail = "; ".join(failures)
    return CheckResult("variance-ordering", not failures, detail)


def check_improvement_identities(tol: float = 1e-10) -> CheckResult:
    """Closed-form variance excess matches direct variance differences, and
    the optimal action baseline has zero excess."""
    worst = 0.0
    for name, problem in all_problems():
        b_state = make_oracle_baseline(problem, "optimal_state")
        b_action = make_oracle_baseline(problem, "optimal_action")
        direct = (
            exact_variance(problem, b_state).total
            - exact_variance(problem, b_action).total
        )
        closed = improvement_over_optimal(problem, b_state)
        gap_formula = state_baseline_gap(problem)
        at_optimum = improvement_over_optimal(problem, b_action)
        worst = max(
            worst,
            abs(closed - direct),
            abs(gap_formula - direct),
            abs(at_optimum),
        )
    return CheckResult(
        "variance-improvement-identities",
        worst <= tol,
        f"max identity residual {worst:.3e}, tol {tol:g}",
    )


def check_gae_telescoping(tol: float = 1e-12) -> CheckResult:
    """lambda=1 advantages equal return-to-go minus baseline; lambda=0 equals
    the one-step residual, on random finite trajectories."""
    rng = np.random.default_rng(20240817)
    m = 3
    paths = []
    for _ in range(4):
        T = int(rng.integers(2, 7))
        paths.append(
            (rng.standard_normal((T, 2)), rng.standard_normal((T, m)), rng.standard_normal(T))
        )
    batch = Batch.from_paths(paths, gamma=0.9)
    baselines = rng.standard_normal((batch.n_steps, m))

    full = gae_advantages(batch, baselines, lam=1.0)
    err1 = float(np.max(np.abs(full - (batch.qhat[:, None] - baselines))))

    onestep = gae_advantages(batch, baselines, lam=0.0)
    expected = np.empty_like(onestep)
    for k in range(batch.n_trajectories):
        sl = batch.traj_slice(k)
        r, b = batch.rewards[sl], baselines[sl]
        for t in range(len(r)):
            b_next = b[t + 1] if t + 1 < len(r) else np.zeros(m)
            expected[sl][t] = r[t] + batch.gamma * b_next - b[t]
    err0 = float(np.max(np.abs(onestep - expected)))
    worst = max(err1, err0)
    return CheckResult(
        "gae-telescoping",
        worst <= tol,
        f"lam=1 err {err1:.3e}, lam=0 err {err0:.3e}, tol {tol:g}",
    )


def _random_policies(rng):
    for _ in range(25):
        state_dim, m = 2, 3
        feats = RawFeatures(state_dim)
        pol = IndependentGaussianPolicy(
            weights=rng.standard_normal((m, state_dim)) * 0.5,
            biases=rng.standard_normal(m) * 0.5,
            log_std=rng.uniform(-0.5, 0.5, m),
            features=feats,
        )
        state = rng.standard_normal(state_dim)
        yield pol, state
    for _ in range(25):
        feats = RawFeatures(2)
        pol = CategoricalPolicy(
            [rng.standard_normal((2, 2)) * 0.5, rng.standard_normal((3, 2)) * 0.5],
            feats,
        )
        state = rng.standard_normal(2)
        yield pol, state


def check_score_fd(tol: float = 1e-5) -> CheckResult:
    """Rows of the training score matrix match central differences of log pi
    on 50 random (policy, state, action) triples."""
    rng = np.random.default_rng(77)
    h = 1e-6
    worst = 0.0
    for pol, state in _random_policies(rng):
        states = state[None, :]
        actions = pol.sample(states, pol.draw(rng, 1))
        analytic = pol.score_matrix(states, actions)[0]
        theta = pol.theta
        fd = np.empty_like(theta)
        for k in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (
                pol.with_theta(up).log_prob(states, actions)[0]
                - pol.with_theta(dn).log_prob(states, actions)[0]
            ) / (2 * h)
        rel = float(np.max(np.abs(fd - analytic))) / max(1.0, float(np.max(np.abs(analytic))))
        worst = max(worst, rel)
    return CheckResult(
        "score-finite-differences",
        worst <= tol,
        f"max relative score error {worst:.3e} over 50 triples, tol {tol:g}",
    )


def check_gradient_fd(tol: float = 1e-6) -> CheckResult:
    """exact_gradient matches central differences of exact_eta on every fixture."""
    h = 1e-6
    worst = 0.0
    for name, problem in all_problems():
        grad = exact_gradient(problem)
        theta = problem.policy.theta
        fd = np.empty_like(theta)
        for k in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (
                exact_eta(problem.with_theta(up)) - exact_eta(problem.with_theta(dn))
            ) / (2 * h)
        rel = float(np.max(np.abs(fd - grad))) / max(1.0, float(np.max(np.abs(grad))))
        worst = max(worst, rel)
    return CheckResult(
        "exact-gradient-finite-differences",
        worst <= tol,
        f"max relative gradient error {worst:.3e}, tol {tol:g}",
    )


def check_orthogonality(tol: float = 1e-12) -> CheckResult:
    """Enumerated E_{a^i}[z_i b_i] = 0 for every baseline kind and factor:
    the reason any a^{-i}-measurable baseline leaves the gradient unbiased."""
    import itertools

    worst = 0.0
    for name in FIXTURE_NAMES:
        problem = fixture_problem(name)
        policy = problem.policy
        env = problem.env
        cards = env.cardinalities
        for kind in ORACLE_BASELINE_KINDS:
            baseline = make_oracle_baseline(problem, kind)
            for s in range(len(env.rho0)):
                sv = np.array([[float(s)]])
                for a in itertools.product(*[range(k) for k in cards]):
                    for i in range(policy.m):
                        block = policy.block_slices[i]
                        probs = policy.factor_probs(sv, i)[0]
                        total = np.zeros(block.stop - block.start)
                        for v, pv in enumerate(probs):
                            swapped = tuple(v if j == i else a[j] for j in range(policy.m))
                            av = np.array([swapped], dtype=float)
                            total += (
                                float(pv)
                                * baseline(i, s, swapped)
                                * policy.score_matrix(sv, av)[0, block]
                            )
                        worst = max(worst, float(np.max(np.abs(total))))
    return CheckResult(
        "baseline-score-orthogonality",
        worst <= tol,
        f"max |E_(a^i)[z_i b_i]| = {worst:.3e}, tol {tol:g}",
    )


def check_marginalization(tol: float = 1e-12) -> CheckResult:
    """Exact marginalization matches the hand probability sum; sampling
    converges within 3 standard errors; mean substitution is exact for
    action-linear Q."""
    failures = []

    # exact categorical sum
    feats = RawFeatures(1)
    cat = CategoricalPolicy(
        [np.array([[0.6]]), np.array([[0.0], [0.8]])], feats
    )  # factor 0 has a single outcome; factor 1 is binary
    state = np.array([1.0])

    def q_cat(s, a):
        return 1.0 + 2.0 * a[0] - 1.5 * a[1] + 0.7 * a[0] * a[1]

    action = np.array([0.0, 1.0])
    probs = cat.factor_probs(state[None, :], 1)[0]
    by_hand = probs[0] * q_cat(state, (0.0, 0.0)) + probs[1] * q_cat(state, (0.0, 1.0))
    got = mc_marginalized_baseline(q_cat, cat, state, action, i=1, exact=True)
    if abs(got - by_hand) > tol:
        failures.append(f"exact sum off by {abs(got - by_hand):.3e}")

    # sampled convergence, quadratic Q with known Gaussian marginal
    gauss = IndependentGaussianPolicy(
        weights=np.zeros((2, 1)),
        biases=np.array([0.3, -0.4]),
        log_std=np.array([0.1, -0.2]),
        features=RawFeatures(1),
    )
    c = np.array([1.0, -0.5])

    def q_quad(s, a):
        return -float(np.sum((np.asarray(a) - c) ** 2))

    action = np.array([0.8, 0.2])
    i = 0
    mu_i, sigma_i = 0.3, float(np.exp(0.1))
    analytic = q_quad(None, action) + (action[i] - c[i]) ** 2 - (
        (mu_i - c[i]) ** 2 + sigma_i**2
    )
    n_draws = 1000
    rng = np.random.default_rng(555)
    draws = gauss.sample_factor(np.zeros((1, 1)), i, n_draws, rng)[0]
    vals = []
    for v in draws:
        swapped = action.copy()
        swapped[i] = v
        vals.append(q_quad(None, swapped))
    vals = np.array(vals)
    se = float(np.std(vals, ddof=1)) / np.sqrt(n_draws)
    rng2 = np.random.default_rng(555)
    sampled = mc_marginalized_baseline(
        q_quad, gauss, np.zeros(1), action, i, n_samples=n_draws, rng=rng2
    )
    if abs(sampled - np.mean(vals)) > 1e-12:
        failures.append("sampled path does not reproduce its own draws")
    if abs(sampled - analytic) > 3 * se:
        failures.append(
            f"sampled {sampled:.4f} vs analytic {analytic:.4f} exceeds 3 SE ({se:.4f})"
        )

    # mean substitution on linear Q
    w, w0 = np.array([0.7, -0.3]), 0.2

    def q_lin(s, a):
        return float(w @ np.asarray(a) + w0)

    got = mean_marginalized_baseline(q_lin, gauss, np.zeros(1), action, i=1)
    swapped = action.copy()
    swapped[1] = -0.4
    analytic_lin = q_lin(None, swapped)
    if abs(got - analytic_lin) > tol:
        failures.append(f"mean substitution off by {abs(got - analytic_lin):.3e}")

    detail = "exact sum, 3-SE sampling, and linear mean substitution all agree"
    if failures:
        detail = "; ".join(failures)
    return CheckResult("marginalization-consistency", not failures, detail)


def check_optimal_baseline_probe(trials: int = 100) -> CheckResult:
    """No random perturbation of the optimal baselines lowers exact variance."""
    rng = np.random.default_rng(99)
    problem = fixture_problem("bandit_two_factor")
    opt = make_oracle_baseline(problem, "optimal_action")
    base_var = exact_variance(problem, opt).total
    worst = np.inf
    for _ in range(trials):
        shift = rng.standard_normal(problem.m) * rng.uniform(0.01, 1.0)

        def perturbed(i, s, a, shift=shift):
            return opt(i, s, a) + shift[i]

        worst = min(worst, exact_variance(problem, perturbed).total - base_var)
    return CheckResult(
        "optimal-baseline-probe",
        worst >= -1e-10,
        f"min variance excess over {trials} perturbations: {worst:.3e}",
    )


CHECKS = (
    check_unbiasedness,
    check_variance_ordering,
    check_improvement_identities,
    check_gae_telescoping,
    check_score_fd,
    check_gradient_fd,
    check_orthogonality,
    check_marginalization,
    check_optimal_baseline_probe,
)


def run_all() -> list:
    results = []
    for fn in CHECKS:
        try:
            results.append(fn())
        except Exception as exc:  # the harness must report, not crash
            results.append(CheckResult(fn.__name__, False, f"raised {exc!r}"))
    return results
