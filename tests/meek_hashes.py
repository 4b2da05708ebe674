"""The ``repr`` sha256 of the Meek count of the benchmark's seed-0 elections.

The ``party`` and ``spread`` elections of ``bench/run.py --workload election
--seed 0`` are regenerated with ``bench/gen.py`` and counted in-process. Their
``ElectionResult`` reprs carry every float of every round, so equal hashes
mean the same bits. ``tests/test_voting.py`` pins them under pytest; this file
also runs alone, for interpreters without pytest::

    PYTHONPATH=src python3.12 tests/meek_hashes.py

It prints each hash and exits 1 if one differs from its pin.
"""

import hashlib
import importlib.util
import os
import random
import sys
import tempfile
from pathlib import Path

from infomarket import voting

PINNED = {
    "party": "76e699ca4bef9eac9272797e809b6ef309adcefbc99f7cd00017baffbad7feea",
    "spread": "1f8e60a0dc8eebada3240a5cb99c889778901862d92c13726adc16358fe4f463",
}

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """``bench/<name>.py``, loaded by path: ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seed0_count_hashes() -> dict[str, str]:
    """Name -> sha256 of ``repr(meek_count(...))`` for the seed-0 elections."""
    gen = bench_module("gen")
    rng = random.Random("election-0")  # drawn in bench/run.py's order: party, then spread
    elections = {"party": (gen.party_election(rng, 20000, 12, 4), 4),
                 "spread": (gen.spread_election(rng, 6000, 20, 200), 6)}
    hashes = {}
    with tempfile.TemporaryDirectory() as work:
        for name, (rankings, seats) in elections.items():
            gen.write_election(work, name, rankings, seats)
            ballots = voting.load_ballot_file(os.path.join(work, f"{name}_ballots.txt"))
            candidates = sorted({c for b in ballots for c in b.ranking})
            result = voting.meek_count(ballots, candidates, seats, 1e-9)
            hashes[name] = hashlib.sha256(repr(result).encode()).hexdigest()
    return hashes


if __name__ == "__main__":
    got = seed0_count_hashes()
    for name, digest in got.items():
        print(f"Python {sys.version.split()[0]} {name} {digest}")
    sys.exit(0 if got == PINNED else 1)
