"""Mutated configs and fixtures fail with ConfigError and nothing else.

Each case applies one seeded mutation to a valid document: drop a key or list
entry, retype a value, add a key, reshape a list (drop, repeat or wrap it) or
negate a number. The mutated document may still be valid; what it may not do
is raise anything but ``ConfigError``.
"""

import copy
import importlib.util
import json
import random
from pathlib import Path

import pytest

from factored_pg.config import config_from_dict, config_to_dict, matching_task_config
from factored_pg.envs import TabularMdp
from factored_pg.errors import ConfigError
from factored_pg.verify import fixture_path

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
N_MUTATIONS = 200
RETYPED = ["x", None, True, 0, 2.5, -1, [], [1, "x"], {}, {"k": 1}]


def _slots(tree):
    """Every (container, key) pair below ``tree``, depth first."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, child in list(items):
        yield tree, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


def _mutate(doc, rng: random.Random) -> str:
    """Apply one mutation to ``doc`` in place; returns its description."""
    slots = list(_slots(doc))
    kind = rng.choice(["drop", "retype", "add", "reshape", "negate"])
    if kind == "add":
        dicts = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        rng.choice(dicts)["extra"] = copy.deepcopy(rng.choice(RETYPED))
        return kind
    if kind == "reshape":
        lists = [(c, k) for c, k in slots if isinstance(c[k], list) and c[k]]
        if lists:
            parent, key = rng.choice(lists)
            how = rng.choice(["pop", "repeat", "wrap"])
            value = parent[key]
            parent[key] = {"pop": value[:-1], "repeat": value + value[:1], "wrap": [value]}[how]
            return f"{kind} {key!r} by {how}"
        kind = "drop"
    if kind == "negate":
        numbers = [(c, k) for c, k in slots
                   if isinstance(c[k], (int, float)) and not isinstance(c[k], bool)]
        if numbers:
            parent, key = rng.choice(numbers)
            parent[key] = -parent[key]
            return f"{kind} {key!r}"
        kind = "drop"
    parent, key = rng.choice(slots)
    if kind == "drop":
        del parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(RETYPED))
    return f"{kind} {key!r}"


def _fuzz(valid: dict, parse, seed: int) -> None:
    rng = random.Random(seed)
    parse(copy.deepcopy(valid))  # the unmutated document parses
    for k in range(N_MUTATIONS):
        doc = copy.deepcopy(valid)
        what = _mutate(doc, rng)
        try:
            parse(doc)
        except ConfigError:
            pass
        except Exception as exc:  # noqa: BLE001 - the assertion is that nothing else escapes
            pytest.fail(f"mutation {k} ({what}) raised {type(exc).__name__}: {exc}")


def _matching_config() -> dict:
    valid = config_to_dict(matching_task_config(12))
    valid["arms"].append({"name": "mc", "kind": "mc_q", "exact": True, "ridge": None})
    return valid


def _perfbench_config(name: str) -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]["config"]


@pytest.mark.parametrize(
    "valid, seed",
    [
        pytest.param(_matching_config(), 0, id="matching_m12"),
        pytest.param(_perfbench_config("point_mass"), 2, id="point_mass"),
        pytest.param(_perfbench_config("tabular_chain"), 3, id="tabular_chain"),
    ],
)
def test_mutated_configs_raise_only_config_error(valid, seed):
    _fuzz(valid, config_from_dict, seed=seed)


def test_mutated_fixtures_raise_only_config_error():
    with open(fixture_path("chain_two_step")) as fh:
        valid = json.load(fh)
    _fuzz(valid, TabularMdp.from_dict, seed=1)
