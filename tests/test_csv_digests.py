"""Every experiment's CSV bytes against digests frozen by
tests/data/make_csv_digests.py, so a change meant to keep the numbers is
checked to keep them without an ad hoc script."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("make_csv_digests", DATA / "make_csv_digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

FROZEN = json.loads((DATA / "csv_digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def same_stream():
    """Skip where the frozen CSVs cannot be told apart from a numpy change:
    another numpy version, or a fading stream whose bytes moved."""
    if np.__version__ != FROZEN["numpy"]:
        pytest.skip(f"digests frozen under numpy {FROZEN['numpy']}, running {np.__version__}")
    stream = {k: v for k, v in FROZEN["stream"].items() if k != "sha256"}
    if digests.stream_digest(**stream) != FROZEN["stream"]["sha256"]:
        pytest.skip("the fading stream's frozen digest changed: regenerate after checking it")


def test_cases_are_the_generators():
    assert [case["raw"] for case in FROZEN["csvs"]] == digests.cases()


@pytest.mark.parametrize("case", FROZEN["csvs"], ids=lambda c: "{}-{}-seed{}".format(
    c["raw"]["experiment"], c["raw"]["sim"]["slots"], c["raw"]["sim"]["seed"]))
def test_csv_bytes_match_frozen_digest(same_stream, case):
    assert digests.csv_digest(case["raw"]) == case["sha256"]
