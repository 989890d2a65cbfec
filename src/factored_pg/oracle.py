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
  Z_i = E[z_i'z_i | s, a^keep] and Y_i = E[z_i'z_i qhat | s, a^keep]
  (keep = factors whose values b_i may see), and the variance excess of any
  baseline b over b* is sum_i E[Z_i (b_i - Y_i/Z_i)^2]. The suboptimality of
  the best state-only baseline follows by substituting it for b_i.
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
    "dag",
)


class EnumerableProblem:
    """A tabular environment paired with a categorical factored policy."""

    def __init__(self, env, policy):
        if any(kind != "categorical" for kind in policy.factor_kinds):
            raise NotEnumerableError("exact oracles require categorical factors")
        self.env = env
        self.policy = policy
        self.enumerated = env.enumerate_trajectories()  # raises past the budget
        self.gamma = env.spec.gamma
        self.m = policy.m

    def with_theta(self, theta: np.ndarray) -> "EnumerableProblem":
        clone = EnumerableProblem.__new__(EnumerableProblem)
        clone.env = self.env
        clone.policy = self.policy.with_theta(theta)
        clone.enumerated = self.enumerated
        clone.gamma = self.gamma
        clone.m = self.m
        return clone


# ---------------------------------------------------------------------------
# enumeration plumbing


def trajectory_probabilities(problem: EnumerableProblem) -> np.ndarray:
    return np.array([et.probability(problem.policy) for et in problem.enumerated])


@dataclass
class _MuSamples:
    """Flattened (trajectory, timestep) samples under the visitation measure."""

    weights: np.ndarray      # (n,), sums to 1
    states: list             # int state per sample
    actions: list            # tuple of int factor values per sample
    qhat: np.ndarray         # (n,)


def _mu_samples(problem: EnumerableProblem) -> _MuSamples:
    probs = trajectory_probabilities(problem)
    gamma = problem.gamma
    horizon = problem.env.spec.horizon
    norm = sum(gamma**t for t in range(horizon))
    weights, states, actions, qhat = [], [], [], []
    for et, p in zip(problem.enumerated, probs):
        rets = returns_to_go(et.rewards, gamma)
        for t in range(len(rets)):
            weights.append(p * gamma**t / norm)
            states.append(int(round(float(et.states[t, 0]))))
            actions.append(tuple(int(round(v)) for v in et.actions[t]))
            qhat.append(float(rets[t]))
    return _MuSamples(np.array(weights), states, actions, np.array(qhat))


def _score_cache(problem: EnumerableProblem):
    """Per-factor full-length score vectors, memoized over (state, action)."""
    cache: dict = {}
    policy = problem.policy

    def scores(s: int, a: tuple) -> list:
        key = (s, a)
        if key not in cache:
            row = policy.score_matrix(np.array([[float(s)]]), np.array([a], dtype=float))[0]
            per_factor = []
            for block in policy.block_slices:
                z = np.zeros(policy.n_params)
                z[block] = row[block]
                per_factor.append(z)
            cache[key] = per_factor
        return cache[key]

    return scores


def _keep_key(problem: EnumerableProblem, i: int, a: tuple) -> tuple:
    """Values of the factors baseline i is allowed to condition on."""
    blocked = set(problem.policy.descendants(i))
    return tuple(a[j] for j in range(problem.m) if j not in blocked)


# ---------------------------------------------------------------------------
# value and gradient


def exact_eta(problem: EnumerableProblem) -> float:
    """Expected discounted return under the problem's policy."""
    probs = trajectory_probabilities(problem)
    gamma = problem.gamma
    total = 0.0
    for et, p in zip(problem.enumerated, probs):
        rewards = et.rewards
        total += p * float(sum(gamma**t * rewards[t] for t in range(len(rewards))))
    return total


def exact_gradient(problem: EnumerableProblem) -> np.ndarray:
    """d eta / d theta via sum_tau p(tau) sum_t gamma^t z(s_t,a_t) qhat_t."""
    probs = trajectory_probabilities(problem)
    scores = _score_cache(problem)
    gamma = problem.gamma
    g = np.zeros(problem.policy.n_params)
    for et, p in zip(problem.enumerated, probs):
        rets = returns_to_go(et.rewards, gamma)
        for t in range(len(rets)):
            s = int(round(float(et.states[t, 0])))
            a = tuple(int(round(v)) for v in et.actions[t])
            zs = scores(s, a)
            g += (p * gamma**t * rets[t]) * np.sum(zs, axis=0)
    return g


def exact_pg_expectation(problem: EnumerableProblem, baseline) -> np.ndarray:
    """Exact expectation of the per-trajectory gradient estimator.

    ``baseline`` maps (factor, state, action tuple) to a real that may not
    depend on the factor's own value; any such function leaves this
    expectation equal to exact_gradient.
    """
    probs = trajectory_probabilities(problem)
    scores = _score_cache(problem)
    gamma = problem.gamma
    g = np.zeros(problem.policy.n_params)
    for et, p in zip(problem.enumerated, probs):
        rets = returns_to_go(et.rewards, gamma)
        contrib = np.zeros_like(g)
        for t in range(len(rets)):
            s = int(round(float(et.states[t, 0])))
            a = tuple(int(round(v)) for v in et.actions[t])
            zs = scores(s, a)
            for i in range(problem.m):
                contrib += (gamma**t * (rets[t] - baseline(i, s, a))) * zs[i]
        g += p * contrib
    return g


# ---------------------------------------------------------------------------
# tables


def exact_q_table(problem: EnumerableProblem) -> dict:
    """E[qhat | s, a] under the visitation measure."""
    mu = _mu_samples(problem)
    num: dict = {}
    den: dict = {}
    for w, s, a, q in zip(mu.weights, mu.states, mu.actions, mu.qhat):
        key = (s, a)
        num[key] = num.get(key, 0.0) + w * q
        den[key] = den.get(key, 0.0) + w
    return {k: num[k] / den[k] for k in num}


def exact_state_values(problem: EnumerableProblem) -> dict:
    """E[qhat | s] under the visitation measure."""
    mu = _mu_samples(problem)
    num: dict = {}
    den: dict = {}
    for w, s, q in zip(mu.weights, mu.states, mu.qhat):
        num[s] = num.get(s, 0.0) + w * q
        den[s] = den.get(s, 0.0) + w
    return {s: num[s] / den[s] for s in num}


def zy_tables(problem: EnumerableProblem):
    """Group-conditional moments used by every optimality identity.

    Returns {(i, s, keep_key): (group_weight, Z, Y)} with
    Z = E[z_i'z_i | group] and Y = E[z_i'z_i qhat | group]; group weights are
    the marginal visitation probabilities of (s, a^keep) and sum to 1 per
    factor.
    """
    mu = _mu_samples(problem)
    scores = _score_cache(problem)
    acc: dict = {}
    for w, s, a, q in zip(mu.weights, mu.states, mu.actions, mu.qhat):
        zs = scores(s, a)
        for i in range(problem.m):
            zsq = float(zs[i] @ zs[i])
            key = (i, s, _keep_key(problem, i, a))
            tot_w, tot_z, tot_y = acc.get(key, (0.0, 0.0, 0.0))
            acc[key] = (tot_w + w, tot_z + w * zsq, tot_y + w * zsq * q)
    return {k: (w, z / w, y / w) for k, (w, z, y) in acc.items()}


@dataclass
class OptimalBaselines:
    """Exact optimal baselines: state-only and per-factor action-dependent."""

    state: dict    # s -> b*(s)
    action: dict   # (i, s, keep_key) -> b_i*(s, a^keep)


def exact_optimal_baselines(problem: EnumerableProblem) -> OptimalBaselines:
    zy = zy_tables(problem)
    action = {}
    for key, (_, z, y) in zy.items():
        if z <= 0.0:
            raise ZeroScoreNormError(
                f"factor {key[0]} has vanishing score norm at state {key[1]}; "
                "the optimal baseline denominator is zero"
            )
        action[key] = y / z
    # state baseline: ratio of state-conditional sums over factors
    num: dict = {}
    den: dict = {}
    for (i, s, _), (w, z, y) in zy.items():
        num[s] = num.get(s, 0.0) + w * y
        den[s] = den.get(s, 0.0) + w * z
    state = {}
    for s in num:
        if den[s] <= 0.0:
            raise ZeroScoreNormError(f"vanishing joint score norm at state {s}")
        state[s] = num[s] / den[s]
    return OptimalBaselines(state=state, action=action)


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
        return lambda i, s, a: table[(i, s, _keep_key(problem, i, a))]
    if kind == "marginalized_q":
        if any(problem.policy.parents(i) for i in range(problem.m)):
            raise NotEnumerableError(
                "exact marginalization applies to the independent factorization only"
            )
        q = exact_q_table(problem)
        policy = problem.policy

        def marginalized(i, s, a):
            probs = policy.factor_probs(np.array([[float(s)]]), i)[0]
            total = 0.0
            for v, pv in enumerate(probs):
                swapped = tuple(v if j == i else a[j] for j in range(problem.m))
                total += float(pv) * q[(s, swapped)]
            return total

        return marginalized
    if kind == "dag":
        mu = _mu_samples(problem)
        num: dict = {}
        den: dict = {}
        for w, s, a, qv in zip(mu.weights, mu.states, mu.actions, mu.qhat):
            for i in range(problem.m):
                key = (i, s, _keep_key(problem, i, a))
                num[key] = num.get(key, 0.0) + w * qv
                den[key] = den.get(key, 0.0) + w
        table = {k: num[k] / den[k] for k in num}
        return lambda i, s, a: table[(i, s, _keep_key(problem, i, a))]
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
    mu = _mu_samples(problem)
    scores = _score_cache(problem)
    p = problem.policy.n_params
    m = problem.m
    e_g = np.zeros(p)
    e_gg = 0.0
    e_gi = np.zeros((m, p))
    e_gigi = np.zeros(m)
    e_zq = np.zeros((m, p))
    for w, s, a, q in zip(mu.weights, mu.states, mu.actions, mu.qhat):
        zs = scores(s, a)
        g = np.zeros(p)
        for i in range(m):
            gi = zs[i] * (q - baseline(i, s, a))
            g += gi
            e_gi[i] += w * gi
            e_gigi[i] += w * float(gi @ gi)
            e_zq[i] += (w * q) * zs[i]
        e_g += w * g
        e_gg += w * float(g @ g)
    total = e_gg - float(e_g @ e_g)
    per_factor = e_gigi - np.einsum("ip,ip->i", e_gi, e_gi)
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
    zy = zy_tables(problem)
    rep = _group_representatives(problem)
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
    b_state = exact_optimal_baselines(problem).state
    total = 0.0
    for (i, s, _), (w, z, y) in zy.items():
        if z <= 0.0:
            continue
        total += w * (z * b_state[s] - y) ** 2 / z
    return total


def _group_representatives(problem: EnumerableProblem) -> dict:
    """One concrete action tuple per (factor, state, keep_key) group."""
    mu = _mu_samples(problem)
    rep: dict = {}
    for s, a in zip(mu.states, mu.actions):
        for i in range(problem.m):
            rep.setdefault((i, s, _keep_key(problem, i, a)), a)
    return rep
