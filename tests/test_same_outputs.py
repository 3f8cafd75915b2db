"""Tests for how ``tools/same_outputs.py`` reports a file that moved."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from svkit import tensorio

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

PARENT_SCORES = "u1 u2 2.5\nu1 u3 -4\nu2 u3 0\n"


@pytest.fixture
def sides(tmp_path):
    """A parent and a change work directory."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    return parent, change


def write_both(sides, name, parent_text, change_text):
    for side, text in zip(sides, (parent_text, change_text)):
        (side / name).write_text(text, encoding="utf-8")


def test_scores_report_largest_absolute_and_relative_difference(sides):
    write_both(sides, "cal.scores", PARENT_SCORES,
               "u1 u2 2.5000000000000004\nu1 u3 -4.002\nu2 u3 1e-300\n")
    # -4 -> -4.002 is the largest absolute move; 0 -> 1e-300 is relative 1
    assert same_outputs.describe("cal.scores", *sides) == (
        "cal.scores differs: largest score difference 0.002 absolute, 1 relative")


def test_scores_moved_by_rounding_alone(sides):
    write_both(sides, "raw.scores", PARENT_SCORES, "u1 u2 2.5000000000000004\nu1 u3 -4\nu2 u3 0\n")
    assert same_outputs.describe("raw.scores", *sides) == (
        "raw.scores differs: largest score difference 4.44e-16 absolute, 1.78e-16 relative")


def test_scores_of_other_pairs_are_not_compared_by_value(sides):
    write_both(sides, "raw.scores", PARENT_SCORES, "u1 u2 2.5\nu1 u4 -4\nu2 u3 0\n")
    assert same_outputs.describe("raw.scores", *sides) == (
        "raw.scores differs: the trial pairs differ")


def test_tensor_file_names_the_tensor_that_moved_most(sides):
    parent, change = sides
    tensorio.write_tensors(parent / "emb.svw", {"u1": np.array([1.0, 2.0]),
                                                "u2": np.array([[8.0], [-1.0]])})
    tensorio.write_tensors(change / "emb.svw", {"u1": np.array([1.0, 2.5]),
                                                "u2": np.array([[8.0], [-2.0]])})
    assert same_outputs.describe("emb.svw", *sides) == (
        "emb.svw differs: largest tensor difference 1 absolute (tensor 'u2'), 0.5 relative")


def test_feature_matrix_file_reports_its_largest_difference(sides):
    parent, change = sides
    tensorio.write_feature_matrix(parent / "cohort.svf", np.array([[1.0, 4.0]]))
    tensorio.write_feature_matrix(change / "cohort.svf", np.array([[1.0, 3.0]]))
    assert same_outputs.describe("cohort.svf", *sides) == (
        "cohort.svf differs: largest tensor difference 1 absolute, 0.25 relative")


def test_missing_unreadable_and_other_files(sides):
    parent, change = sides
    (change / "x.scores").write_text("", encoding="utf-8")
    assert same_outputs.describe("x.scores", *sides) == "x.scores is missing from the parent"
    (parent / "y.svw").write_bytes(b"SVW1")
    assert same_outputs.describe("y.svw", *sides) == "y.svw is missing from the change"
    (change / "y.svw").write_bytes(b"SVW1\x00\x00\x00\x00")
    assert same_outputs.describe("y.svw", *sides) == "y.svw differs: one side cannot be read"
    write_both(sides, "eval.txt", "EER=1%\n", "EER=2%\n")
    assert same_outputs.describe("eval.txt", *sides) == "eval.txt differs"


def test_difference_relative_to_the_largest_value_of_each_file_or_tensor(sides):
    parent, change = sides
    write_both(sides, "cal.scores", PARENT_SCORES,
               "u1 u2 2.5000000000000004\nu1 u3 -4.002\nu2 u3 1e-300\n")
    # 0.002 of the largest |score|, 4.002; the per-element figure is 1 (0 -> 1e-300)
    assert same_outputs.of_largest("cal.scores", *sides) == (
        "; 0.0005 of the largest absolute value of the file")
    tensorio.write_tensors(parent / "emb.svw", {"u1": np.array([1.0, 2.0]),
                                                "u2": np.array([[8.0], [-1.0]])})
    tensorio.write_tensors(change / "emb.svw", {"u1": np.array([1.0, 2.5]),
                                                "u2": np.array([[8.0], [-2.0]])})
    # u1 moved 0.5 of 2.5 and u2 1 of 8: the smaller move is the larger share
    assert same_outputs.of_largest("emb.svw", *sides) == (
        "; 0.2 of the largest absolute value of tensor 'u1'")
    tensorio.write_feature_matrix(parent / "cohort.svf", np.array([[1.0, -4.0]]))
    tensorio.write_feature_matrix(change / "cohort.svf", np.array([[2.0, -4.0]]))
    assert same_outputs.of_largest("cohort.svf", *sides) == (
        "; 0.25 of the largest absolute value of the file")
    (parent / "only.scores").write_text("", encoding="utf-8")
    (change / "bad.svw").write_bytes(b"SVW1")
    (parent / "bad.svw").write_bytes(b"SVW1")
    write_both(sides, "eval.txt", "EER=1%\n", "EER=2%\n")
    for name in ("only.scores", "bad.svw", "eval.txt"):
        assert same_outputs.of_largest(name, *sides) == ""
