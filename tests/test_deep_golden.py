"""Deep evaluation pinned record by record.

``golden/deep_eval.jsonl`` holds one record per deep run of a seeded random
program (``generators.random_bindings`` + ``random_program``): 100 seeds
per modality, even seeds linear, odd seeds not.  A non-linear
probability program reads a variable more than once, and reads one draw
of it in each world, as the oracle does.  Every program runs with ``check_invariants`` off and on, interval
programs also under both ``interval_empty`` policies, which give the same
record unless a checked ``reject`` run refuses an inverted range.

A record holds the result's values and errors with ``repr`` labels (exact
floats), the ``LiftStats`` counters, the sorted applications and the
emptiness checks the run made -- or the type and message of what it raised.

Regenerate (only when a change of output is intended):

    PYTHONPATH=src python3 tests/test_deep_golden.py

which prints how many records changed in each field, so a re-record that
should touch only counters shows at a glance whether it did.
"""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from multiworld import lang
from multiworld.lifting import LiftStats
from multiworld.modal_eval import ModalEnv, eval_modal
from generators import random_bindings, random_program

GOLDEN = Path(__file__).resolve().parent / "golden" / "deep_eval.jsonl"
SEEDS = range(100)
KINDS = ("feature", "probability", "interval")


def runs():
    """(kind, seed, check_invariants, interval_empty) of every record."""
    for kind in KINDS:
        policies = ("reject", "swap") if kind == "interval" else ("reject",)
        for seed in SEEDS:
            for check in (False, True):
                for policy in policies:
                    yield kind, seed, check, policy


def record(kind, seed, check, policy) -> dict:
    rng = random.Random(seed)
    alg, binds = random_bindings(rng, kind)
    program = random_program(rng, alg, binds, linear=seed % 2 == 0)
    text = lang.render_program(program)
    out = {
        "kind": kind,
        "seed": seed,
        "check": check,
        "policy": policy,
        "program": hashlib.sha256(text.encode()).hexdigest()[:12],
    }
    env = ModalEnv(alg, binds, check_invariants=check, interval_empty=policy)
    stats = LiftStats()
    before = alg.sat_calls
    try:
        result = eval_modal(program, env, stats)
    except Exception as ex:  # noqa: BLE001 -- what is raised is pinned too
        out["raised"] = f"{type(ex).__name__}: {ex}"
        return out
    out["values"] = [[repr(v), repr(label)] for v, label in result.values]
    out["errors"] = [[k, repr(label)] for k, label in result.errors]
    out["tuples"] = stats.tuples
    out["pruned"] = stats.pruned
    out["applied"] = stats.applied
    out["applications"] = sorted(stats.applications.items())
    out["emptiness_checks"] = alg.sat_calls - before
    return out


def _recorded() -> dict:
    with GOLDEN.open(encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    return {(r["kind"], r["seed"], r["check"], r["policy"]): r for r in rows}


def test_golden_covers_every_run():
    assert sorted(_recorded()) == sorted(runs())


def test_range_policy_changes_no_value():
    # a swap record is its reject twin, unless the checked reject run
    # refused an inverted answer
    recorded = _recorded()
    for (kind, seed, check, policy), swapped in recorded.items():
        if policy == "swap":
            rejected = recorded[kind, seed, check, "reject"]
            if not rejected.get("raised", "").startswith("InvariantViolation"):
                assert {**swapped, "policy": "reject"} == rejected, (seed, check)


@pytest.mark.parametrize("kind", KINDS)
def test_deep_eval_matches_golden(kind):
    recorded = _recorded()
    for key in runs():
        if key[0] == kind:
            # JSON turns the applications' tuples into lists
            assert json.loads(json.dumps(record(*key))) == recorded[key], key


if __name__ == "__main__":
    previous = _recorded() if GOLDEN.exists() else {}
    changed = Counter()
    written = 0
    with GOLDEN.open("w", encoding="utf-8") as handle:
        for key in runs():
            line = json.dumps(record(*key), sort_keys=True, separators=(",", ":"))
            handle.write(line + "\n")
            written += 1
            new, old = json.loads(line), previous.get(key, {})
            changed.update(f for f in new.keys() | old.keys() if new.get(f) != old.get(f))
    print(f"{written} records written to {GOLDEN.name}")
    for field, count in sorted(changed.items()):
        print(f"  {field}: {count} changed")
    if not changed:
        print("  no record changed")
