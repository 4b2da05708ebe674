"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.mark.parametrize("workload", ["election", "long_horizon", "large_market"])
def test_generator_is_reproducible_per_seed(tmp_path, workload):
    build = run.WORKLOADS[workload]
    made = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = tmp_path / label
        directory.mkdir()
        _, made[label + "_info"] = build(str(directory), seed)
        made[label] = _files(str(directory))
    assert made["a"] == made["b"]
    assert made["a_info"] == made["b_info"]
    assert made["a"].keys() == made["c"].keys()
    assert made["a"] != made["c"]


def _shipped_runner(tmp_path, golden):
    ops, _ = run.shipped(str(tmp_path), 0)
    return ops, run.Runner(str(tmp_path), golden)


def _flip(path: str, offset: int) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0x01]))


@pytest.mark.parametrize("golden", [True, False], ids=["golden", "own_check"])
def test_flipped_byte_counts_as_failed_op(tmp_path, golden):
    ops, runner = _shipped_runner(tmp_path, run.load_golden("shipped", 0) if golden else None)
    op = next(op for op in ops if op.label == "newsroom_vote-meek")
    clean = runner.run(op)
    runner.finish(clean)
    assert clean.error is None
    csv_path = runner.csv_path(op)
    # The second data row's total (20 ballots' worth, 4 candidates) starts after
    # "1,A,"; flipping its first digit breaks the golden digest and the check.
    offset = clean.csv.index(b"\n1,A,") + len(b"\n1,A,")
    flipped = runner.run(op)
    _flip(csv_path, offset)
    runner.finish(flipped)
    assert flipped.error is not None


def test_every_flipped_byte_fails_against_golden(tmp_path):
    ops, runner = _shipped_runner(tmp_path, run.load_golden("shipped", 0))
    op = next(op for op in ops if op.label == "tight_race_path")
    clean = runner.run(op)
    runner.finish(clean)
    for offset in range(len(clean.csv)):
        data = bytearray(clean.csv)
        data[offset] ^= 0x01
        assert runner.verify(op, bytes(data)) is not None


def test_traced_pass_leaves_csv_bytes_unchanged(tmp_path):
    ops, runner = _shipped_runner(tmp_path, run.load_golden("shipped", 0))
    for op in ops:
        plain = runner.run(op)
        runner.finish(plain)
        traced = runner.run(op, traced=True)
        runner.finish(traced)
        assert plain.error is None and traced.error is None
        assert traced.csv == plain.csv
        assert traced.trace["spans"][0]["name"] == "cli.main"
