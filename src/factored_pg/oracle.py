"""Exact oracles by exhaustive enumeration of small categorical problems.

Everything here is computed two independent ways or in closed form so the
sampled estimator can be held to tight tolerances:

* eta(theta) and its gradient come from summing over all trajectories;
  the gradient uses the score-weighted return form and is cross-checked
  against finite differences of eta in tests.
* Variance quantities are defined at the visitation-sample level: a sample is
  a (state, action, return-to-go) triple drawn by picking a trajectory with
  its occurrence probability and a timestep with weight gamma^t (normalized).
  Under that measure, with disjoint per-factor parameter blocks,

      Var(sum_i g_i) = sum_i Var(g_i) - sum_{i != j} E[z_i qhat]' E[z_j qhat],

  the per-factor optimal baseline is b_i* = Y_i / Z_i with
  Z_i = E[z_i'z_i | s, a^{-i}] and Y_i = E[z_i'z_i qhat | s, a^{-i}]
  (a^{-i}: every factor but i, the values b_i may see), and the variance
  excess of any baseline b over b* is sum_i E[Z_i (b_i - Y_i/Z_i)^2]. The
  suboptimality of the best state-only baseline follows by substituting it
  for b_i.

The enumeration is the environment's ``PathTable``, (paths, horizon) arrays
in walk order; path probabilities come from one batched ``log_prob``.
Everything but eta reads one table, ``_visits``: each (trajectory, timestep)
of the enumeration flattened once, with per-factor scores from one batched
``score_matrix`` call; conditional tables are weighted group means over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotEnumerableError, ZeroScoreNormError
from .trajectory import returns_to_go

ORACLE_BASELINE_KINDS = (
    "none",
    "state_value",
    "optimal_state",
    "marginalized_q",
    "optimal_action",
)


class EnumerableProblem:
    """A tabular environment paired with a categorical factored policy.

    ``enumerated`` reuses an existing ``PathTable`` of ``env``'s paths; it
    holds no policy probabilities, so it serves every parameter vector.
    """

    def __init__(self, env, policy, enumerated=None):
        if policy.kind != "categorical":
            raise NotEnumerableError("exact oracles require categorical factors")
        self.env = env
        self.policy = policy
        # raises past the enumeration budget
        self.enumerated = env.enumerate_trajectories() if enumerated is None else enumerated
        self.gamma = env.spec.gamma
        self.m = policy.m

    def with_theta(self, theta: np.ndarray) -> "EnumerableProblem":
        return EnumerableProblem(self.env, self.policy.with_theta(theta), self.enumerated)


# ---------------------------------------------------------------------------
# the visitation table


def trajectory_probabilities(problem: EnumerableProblem) -> np.ndarray:
    """p(tau) per path: its environment probability times the policy's, from
    one batched ``log_prob`` over every (path, step) row, summed per path."""
    paths = problem.enumerated
    n, horizon = paths.states.shape
    logp = problem.policy.log_prob(paths.states.reshape(-1, 1).astype(float),
                                   paths.actions.reshape(n * horizon, -1).astype(float))
    return paths.env_prob * np.exp(logp.reshape(n, horizon).sum(axis=1))


def _keep_key(i: int, a: tuple) -> tuple:
    """a^{-i}: the values of every factor but i, which baseline i may see."""
    return a[:i] + a[i + 1:]


@dataclass
class _Visits:
    """Every (trajectory, timestep) of the enumeration, flattened path-major
    in walk order."""

    mass: np.ndarray     # (n,) p(tau) gamma^t
    weights: np.ndarray  # (n,) mass / sum_t gamma^t: the visitation measure, sums to 1
    states: list         # int state per visit
    actions: list        # tuple of int factor values per visit
    qhat: np.ndarray     # (n,) discounted return-to-go
    scores: np.ndarray   # (n, m, n_params); row i holds factor i's score in its block
    groups: list         # (i, s, keep_key) per (visit, factor) pair, visit-major


def _visits(problem: EnumerableProblem) -> _Visits:
    m, policy, paths = problem.m, problem.policy, problem.enumerated
    # Python powers: numpy's vectorized power differs in the last bit
    discounts = [problem.gamma**t for t in range(problem.env.spec.horizon)]
    mass = (trajectory_probabilities(problem)[:, None] * np.array(discounts)).ravel()
    qhat = returns_to_go(paths.rewards.T, problem.gamma).T.ravel()
    states = paths.states.ravel()
    acts = paths.actions.reshape(len(states), m)
    joint = policy.score_matrix(states[:, None].astype(float), acts.astype(float))
    scores = np.zeros((len(joint), m, policy.n_params))
    for i, block in enumerate(policy.block_slices):
        scores[:, i, block] = joint[:, block]
    states = states.tolist()
    actions = [tuple(a) for a in acts.tolist()]
    groups = [(i, s, _keep_key(i, a)) for s, a in zip(states, actions) for i in range(m)]
    return _Visits(mass, mass / sum(discounts), states, actions, qhat, scores, groups)


def _baseline_matrix(problem: EnumerableProblem, v: _Visits, baseline) -> np.ndarray:
    """baseline(i, s, a) per visit and factor, (n, m)."""
    return np.array(
        [[baseline(i, s, a) for i in range(problem.m)] for s, a in zip(v.states, v.actions)]
    )


def _group_means(keys, weights, values) -> dict:
    """{key: (total weight, weighted mean of values)} in first-seen key order."""
    sums: dict = {}
    for key, w, x in zip(keys, weights, values):
        tot_w, tot_x = sums.get(key, (0.0, 0.0))
        sums[key] = (tot_w + w, tot_x + w * x)
    return {k: (w, x / w) for k, (w, x) in sums.items()}


# ---------------------------------------------------------------------------
# value and gradient


def exact_eta(problem: EnumerableProblem) -> float:
    """Expected discounted return under the problem's policy."""
    discounts = [problem.gamma**t for t in range(problem.env.spec.horizon)]
    total = 0.0
    for p, rewards in zip(trajectory_probabilities(problem), problem.enumerated.rewards):
        total += p * float(sum(d * r for d, r in zip(discounts, rewards)))
    return total


def exact_gradient(problem: EnumerableProblem) -> np.ndarray:
    """d eta / d theta via sum_tau p(tau) sum_t gamma^t z(s_t,a_t) qhat_t."""
    v = _visits(problem)
    return (v.mass * v.qhat) @ v.scores.sum(axis=1)


def exact_pg_expectation(problem: EnumerableProblem, baseline) -> np.ndarray:
    """Exact expectation of the per-trajectory gradient estimator.

    ``baseline`` maps (factor, state, action tuple) to a real that may not
    depend on the factor's own value; any such function leaves this
    expectation equal to exact_gradient.
    """
    v = _visits(problem)
    adv = v.qhat[:, None] - _baseline_matrix(problem, v, baseline)
    return np.einsum("k,ki,kip->p", v.mass, adv, v.scores)


# ---------------------------------------------------------------------------
# tables


def exact_q_table(problem: EnumerableProblem) -> dict:
    """E[qhat | s, a] under the visitation measure."""
    v = _visits(problem)
    groups = _group_means(zip(v.states, v.actions), v.weights, v.qhat)
    return {key: q for key, (_, q) in groups.items()}


def exact_state_values(problem: EnumerableProblem) -> dict:
    """E[qhat | s] under the visitation measure."""
    v = _visits(problem)
    return {s: q for s, (_, q) in _group_means(v.states, v.weights, v.qhat).items()}


def zy_tables(problem: EnumerableProblem):
    """Group-conditional moments used by every optimality identity.

    Returns {(i, s, keep_key): (group_weight, Z, Y)} with
    Z = E[z_i'z_i | group] and Y = E[z_i'z_i qhat | group]; group weights are
    the marginal visitation probabilities of (s, a^{-i}) and sum to 1 per
    factor.
    """
    return _zy(problem, _visits(problem))


def _zy(problem: EnumerableProblem, v: _Visits) -> dict:
    zsq = np.einsum("kip,kip->ki", v.scores, v.scores)
    moments = np.stack([zsq, zsq * v.qhat[:, None]], axis=-1).reshape(-1, 2)
    groups = _group_means(v.groups, np.repeat(v.weights, problem.m), moments)
    return {key: (w, float(z), float(y)) for key, (w, (z, y)) in groups.items()}


@dataclass
class OptimalBaselines:
    """Exact optimal baselines: state-only and per-factor action-dependent."""

    state: dict    # s -> b*(s)
    action: dict   # (i, s, keep_key) -> b_i*(s, a^{-i})


def exact_optimal_baselines(problem: EnumerableProblem) -> OptimalBaselines:
    return _optimal(zy_tables(problem))


def _optimal(zy: dict) -> OptimalBaselines:
    action = {}
    for key, (_, z, y) in zy.items():
        if z <= 0.0:
            raise ZeroScoreNormError(
                f"factor {key[0]} has vanishing score norm at state {key[1]}; "
                "the optimal baseline denominator is zero"
            )
        action[key] = y / z
    # b*(s) = sum_i E[Z_i b_i* | s] / sum_i E[Z_i | s], a positive sum as every Z_i > 0
    by_state = _group_means(
        [s for _, s, _ in zy], [w * z for w, z, _ in zy.values()], action.values()
    )
    return OptimalBaselines(state={s: b for s, (_, b) in by_state.items()}, action=action)


def make_oracle_baseline(problem: EnumerableProblem, kind: str):
    """Table-backed baseline function (factor, state, action tuple) -> real."""
    if kind == "none":
        return lambda i, s, a: 0.0
    if kind == "state_value":
        v = exact_state_values(problem)
        return lambda i, s, a: v[s]
    if kind == "optimal_state":
        table = exact_optimal_baselines(problem).state
        return lambda i, s, a: table[s]
    if kind == "optimal_action":
        table = exact_optimal_baselines(problem).action
        return lambda i, s, a: table[(i, s, _keep_key(i, a))]
    if kind == "marginalized_q":
        q = exact_q_table(problem)
        # every state's (m, K) probabilities from one batched call
        probs = problem.policy.probs(np.arange(len(problem.env.rho0), dtype=float)[:, None])

        def marginalized(i, s, a):
            total = 0.0
            for v, pv in enumerate(probs[s, i, : problem.policy.cardinalities[i]]):
                swapped = tuple(v if j == i else a[j] for j in range(problem.m))
                total += float(pv) * q[(s, swapped)]
            return total

        return marginalized
    raise ValueError(f"unknown oracle baseline kind {kind!r}; choose from {ORACLE_BASELINE_KINDS}")


# ---------------------------------------------------------------------------
# variance and its decomposition


@dataclass
class ExactVariance:
    """Trace covariance of the per-sample estimator plus its decomposition.

    ``decomposition_total`` recomputes the total from per-factor variances and
    the mean-product correction; agreement with ``total`` is a nontrivial
    consistency check since the two routes share no intermediate sums.
    """

    total: float
    per_factor: np.ndarray
    cross_correction: float
    decomposition_total: float
    mean: np.ndarray


def exact_variance(problem: EnumerableProblem, baseline) -> ExactVariance:
    v = _visits(problem)
    w = v.weights
    gi = (v.qhat[:, None] - _baseline_matrix(problem, v, baseline))[:, :, None] * v.scores
    g = gi.sum(axis=1)
    e_g = w @ g
    e_gi = np.einsum("k,kip->ip", w, gi)
    e_zq = np.einsum("k,kip->ip", w * v.qhat, v.scores)
    total = float(w @ np.einsum("kp,kp->k", g, g) - e_g @ e_g)
    per_factor = np.einsum("k,kip,kip->i", w, gi, gi) - np.einsum("ip,ip->i", e_gi, e_gi)
    gram = e_zq @ e_zq.T
    cross = float(np.sum(gram) - np.trace(gram))
    return ExactVariance(
        total=total,
        per_factor=per_factor,
        cross_correction=cross,
        decomposition_total=float(np.sum(per_factor) - cross),
        mean=e_g,
    )


def improvement_over_optimal(problem: EnumerableProblem, baseline) -> float:
    """Closed-form variance excess sum_i E[Z_i (b_i - Y_i/Z_i)^2] of ``baseline``
    over the per-factor optimal baseline; equals the direct variance difference."""
    v = _visits(problem)
    zy = _zy(problem, v)
    rep: dict = {}  # one concrete action tuple per group
    for j, key in enumerate(v.groups):
        rep.setdefault(key, v.actions[j // problem.m])
    total = 0.0
    for (i, s, key), (w, z, y) in zy.items():
        if z <= 0.0:
            continue  # zero-score groups contribute nothing
        b = baseline(i, s, rep[(i, s, key)])
        total += w * z * (b - y / z) ** 2
    return total


def state_baseline_gap(problem: EnumerableProblem) -> float:
    """Closed-form I at b = b*(s): the variance cost of ignoring other factors.

    Substitutes the optimal state-only baseline b*(s) = E[sum_j Y_j | s] /
    E[sum_j Z_j | s] into the excess formula, giving
    sum_i E[(1/Z_i) (Z_i b*(s) - Y_i)^2].
    """
    zy = zy_tables(problem)
    b_state = _optimal(zy).state
    total = 0.0
    for (i, s, _), (w, z, y) in zy.items():
        if z <= 0.0:
            continue
        total += w * (z * b_state[s] - y) ** 2 / z
    return total

