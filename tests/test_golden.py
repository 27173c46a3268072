"""Outputs pinned byte for byte.

``golden/cli/<example>.<mode>.out`` is the stdout of ``modal run --stats``
on each shipped example, ``sat_calls`` included; ``<example>.deep-checked.out``
is that of ``--mode deep --stats --check-invariants``.  ``golden/display_labels.json``
holds seeded feature labels (world sets as hex bitmasks, bit ``p`` set iff
configuration ``p`` is in the set, bit ``i`` of ``p`` being ``features[i]``)
with their display text, over 1-6 features and a few at 10.
"""

import json
from pathlib import Path

import pytest

from multiworld.cli import display_label
from multiworld.labels import FeatureAlgebra
from test_cli import run_example

GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLES = ("sharing", "feature_div", "prob_sum", "interval_abs")
MODES = ("deep", "shallow", "oracle", "check")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", EXAMPLES)
def test_cli_output_matches_golden(name, mode):
    code, out, err = run_example(name, "--mode", mode, "--stats")
    assert code == 0, err
    assert out == (GOLDEN / "cli" / f"{name}.{mode}.out").read_text()


@pytest.mark.parametrize("name", EXAMPLES)
def test_checked_deep_output_matches_golden(name):
    code, out, err = run_example(name, "--mode", "deep", "--stats", "--check-invariants")
    assert code == 0, err
    assert out == (GOLDEN / "cli" / f"{name}.deep-checked.out").read_text()


def test_display_text_matches_golden():
    entries = json.loads((GOLDEN / "display_labels.json").read_text())
    assert len(entries) > 200
    for entry in entries:
        alg = FeatureAlgebra(entry["features"])
        label = int(entry["bits"], 16)
        assert display_label(alg)(label) == entry["text"], entry
