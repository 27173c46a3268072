"""Outputs pinned byte for byte.

``golden/cli/<example>.<mode>.out`` is the stdout of ``modal run --stats``
on each shipped example (``test_cli.EXAMPLES``: every ``programs/*.mdl``
with a ``.mb`` of the same name), ``sat_calls`` included; ``<example>.deep-checked.out``
is that of ``--mode deep --stats --check-invariants``.  ``golden/display_labels.json``
holds seeded feature labels (world sets as hex bitmasks, bit ``p`` set iff
configuration ``p`` is in the set, bit ``i`` of ``p`` being ``features[i]``)
with their display text: first ``RECORDED`` entries over 1-6 features and a
few at 10, then ``generated_labels()`` -- the result labels of the
nested-let family and seeded random truth tables over 7-12 features.

Re-record the generated entries (only when a change of output is intended):

    PYTHONPATH=src python3 tests/test_golden.py

which leaves the first ``RECORDED`` entries as they are and prints how many
texts changed.  Re-record the CLI outputs, from the same runs the tests
make, with

    PYTHONPATH=src python3 tests/test_golden.py --cli

which prints ``<file>: <old> -> <new>`` for every line that changed.
"""

import functools
import json
import operator
import random
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from multiworld import lang
from multiworld.bindings import parse_bindings
from multiworld.cli import display_label
from multiworld.labels import FeatureAlgebra
from multiworld.modal_eval import ModalEnv, eval_modal
from reference import essential_primes
from test_cli import EXAMPLES, run_example

GOLDEN = Path(__file__).resolve().parent / "golden"
MODES = ("deep", "shallow", "oracle", "check")
DISPLAY = GOLDEN / "display_labels.json"
RECORDED = 209  # entries not made by generated_labels()
# nested-let sweeps: (features k, program sizes n)
NESTED = ((6, range(2, 13)), (10, range(2, 5)))
DENSITIES = (0.05, 0.5, 0.95)


def nested_let_labels(k: int, n: int):
    """The result labels of the ROADMAP scaling program of size ``n``,
    level ``i`` testing feature ``i % k``."""
    features = [f"F{i}" for i in range(k)]
    alg, binds = parse_bindings(
        f"modality feature({', '.join(features)}); bind x = {{ 1 @ F0, 2 @ !F0 }};"
    )
    lines = ["let v0 = x in"]
    for i in range(1, n):
        lines.append(f'let v{i} = if feature("F{i % k}") then v{i - 1} + {i} else v{i - 1} * 2 in')
    lines.append(f"v{n - 1}")
    result = eval_modal(lang.parse("\n".join(lines)), ModalEnv(alg, binds))
    return alg, [label for _, label in result.values + result.errors]


def generated_labels() -> list:
    """(algebra, label) of every generated entry, each label once."""
    out, seen = [], set()
    for k, sizes in NESTED:
        for n in sizes:
            alg, labels = nested_let_labels(k, n)
            for label in labels:
                if (k, label) not in seen:
                    seen.add((k, label))
                    out.append((alg, label))
    for k in range(7, 13):
        alg = FeatureAlgebra([f"F{i}" for i in range(k)])
        for density in DENSITIES:
            rng = random.Random(f"display/{k}/{density}")
            out.append((alg, sum(1 << p for p in range(1 << k) if rng.random() < density)))
    return out


def cli_golden(name, mode):
    """The golden file of ``<name>.<mode>.out`` and the ``run_example``
    arguments that make it; mode ``deep-checked`` adds ``--check-invariants``."""
    if mode == "deep-checked":
        args = (name, "--mode", "deep", "--stats", "--check-invariants")
    else:
        args = (name, "--mode", mode, "--stats")
    return GOLDEN / "cli" / f"{name}.{mode}.out", args


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", EXAMPLES)
def test_cli_output_matches_golden(name, mode):
    path, args = cli_golden(name, mode)
    code, out, err = run_example(*args)
    assert code == 0, err
    assert out == path.read_text()


@pytest.mark.parametrize("name", EXAMPLES)
def test_checked_deep_output_matches_golden(name):
    path, args = cli_golden(name, "deep-checked")
    code, out, err = run_example(*args)
    assert code == 0, err
    assert out == path.read_text()


def test_display_text_matches_golden():
    entries = json.loads(DISPLAY.read_text())
    assert len(entries) > RECORDED
    for entry in entries:
        alg = FeatureAlgebra(entry["features"])
        label = int(entry["bits"], 16)
        assert display_label(alg)(label) == entry["text"], entry


def test_generated_display_entries_are_current():
    entries = json.loads(DISPLAY.read_text())[RECORDED:]
    labels = [(entry["features"], entry["bits"]) for entry in entries]
    assert labels == [(list(alg.features), hex(label)) for alg, label in generated_labels()]


def nested_let_golden() -> list:
    """(algebra, label, golden text) of every result label of the largest
    program of each nested-let sweep."""
    golden = {(tuple(e["features"]), e["bits"]): e["text"] for e in json.loads(DISPLAY.read_text())}
    out = []
    for k, n in ((6, 12), (10, 4)):
        alg, labels = nested_let_labels(k, n)
        out += [(alg, label, golden[alg.features, hex(label)]) for label in labels]
    return out


def refuse(*args):
    raise AssertionError("display took a step this label does not need")


def test_one_cube_labels_print_without_a_prime_search(monkeypatch):
    # one product, so the label is one cube
    cubes = [case for case in nested_let_golden()
             if case[2] not in ("true", "false") and " | " not in case[2]]
    assert len(cubes) > 50
    monkeypatch.setattr(FeatureAlgebra, "_prime_cubes", refuse)
    for alg, label, text in cubes:
        assert display_label(alg)(label) == text


def test_labels_their_essential_primes_cover_print_without_a_greedy_pass(monkeypatch):
    covered = []
    for alg, label, text in nested_let_golden():
        cover_of, essential = essential_primes(alg, label)
        if functools.reduce(operator.or_, [cover_of[p] for p in essential], 0) == label:
            covered.append((alg, label, text, len(essential)))
    assert sum(count > 1 for *_, count in covered) >= 5  # labels that are not one cube
    monkeypatch.setattr(FeatureAlgebra, "_greedy_cover", refuse)
    for alg, label, text, _ in covered:
        assert display_label(alg)(label) == text


def record_cli():
    for name in EXAMPLES:
        for mode in (*MODES, "deep-checked"):
            path, args = cli_golden(name, mode)
            code, out, err = run_example(*args)
            assert code == 0, err
            old = path.read_text().splitlines() if path.exists() else []
            for before, after in zip_longest(old, out.splitlines(), fillvalue=""):
                if before != after:
                    print(f"{path.name}: {before} -> {after}")
            path.write_text(out)


def record_display():
    kept = json.loads(DISPLAY.read_text())
    previous = {(tuple(e["features"]), e["bits"]): e["text"] for e in kept[RECORDED:]}
    fresh = [
        {"features": list(alg.features), "bits": hex(label), "text": display_label(alg)(label)}
        for alg, label in generated_labels()
    ]
    DISPLAY.write_text(json.dumps(kept[:RECORDED] + fresh, indent=0) + "\n")
    changed = sum(previous.get((tuple(e["features"]), e["bits"])) != e["text"] for e in fresh)
    print(f"{len(fresh)} generated entries written to {DISPLAY.name}, {changed} texts changed or new")


if __name__ == "__main__":
    if sys.argv[1:] == ["--cli"]:
        record_cli()
    else:
        record_display()
