"""The benchmark's workloads.

Every workload is the paper's two-arm comparison: arm ``state`` runs a
state-only baseline and arm ``action`` an action-dependent one, so metric
names are the same on every workload. The benchmark's ``--seed`` is the
training seed; the matching target stays ``target_seed`` 0. Each arm is run by
its own ``harness.run_experiment`` call with a one-arm config, which lets the
two arms train for different iteration counts; a curve's first k rows do not
depend on the iteration count, so they are the rows of the two-arm run.

Why each workload is here is in README.md next to this file.
"""

ARMS = ("state", "action")

CHAIN_FIXTURE = "src/factored_pg/fixtures/chain_two_step.json"

WORKLOADS = {
    # The paper's headline case: 100 Q predictions per batch and a 203-column
    # ridge solve per refit in the action arm; its state arm is dominated by
    # rollout and generator builds, as the horizon-1 tie case at m=12 is.
    "matching_m100": {
        "matching_m": 100,
        "iterations": {"state": 340, "action": 170},
        "seed0_solve_iters": {"state": 321, "action": 150},
    },
    # Multi-step: per-step env/policy calls, bootstrapped GAE, RFF features.
    # gamma 0.95 and kl 0.01 rather than the matching task's kl 0.025 with
    # PointMass's gamma 0.995: there the action arm's policy diverged on 6 of
    # seeds 0-9, and a diverged policy's iterations cost up to twice as much,
    # so the cost per iteration depended on the seed.
    "point_mass": {
        "config": {
            "env": {"name": "point_mass", "params": {"horizon": 100, "gamma": 0.95}},
            "policy": {"features": "linear", "log_std_init": 0.0},
            "optimizer": {"kind": "npg", "kl": 0.01, "damping": 0.1},
            "arms": [
                {"name": "state", "kind": "state_value", "features": "rff", "n_features": 100},
                {"name": "action", "kind": "mc_q", "mc_samples": 10,
                 "features": "rff", "n_features": 100},
            ],
            "n_trajectories": 10,
            "lam": 0.97,
            "normalize": True,
        },
        "iterations": {"state": 100, "action": 100},
    },
    # Tabular fixture: the per-step Python fallbacks and dict-keyed tables.
    # The state arm is a regression on [s, s^2], which fits any function of
    # the three chain states exactly: a tabular state_value arm cannot finish
    # run_experiment (its checkpoint holds numpy integer keys that json.dump
    # rejects), see README.md.
    "tabular_chain": {
        "config": {
            "env": {"name": "tabular", "params": {"path": CHAIN_FIXTURE}},
            "policy": {"features": "indicator"},
            "optimizer": {"kind": "npg", "kl": 0.025, "damping": 0.1},
            "arms": [
                {"name": "state", "kind": "state_value", "features": "quadratic"},
                {"name": "action", "kind": "mc_q", "tabular": True, "exact": True},
            ],
            "n_trajectories": 50,
            "lam": 1.0,
            "normalize": True,
        },
        "iterations": {"state": 100, "action": 100},
        "oracle_check": True,
    },
}
