"""Fixtures shared by several test modules."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import corpus  # noqa: E402

CORPUS_SEED = 3


@pytest.fixture(scope="session")
def seed3_corpus(tmp_path_factory):
    """``corpus_of(workload)``: the directory and manifest of the
    workload's seed-3 benchmark corpus, written once per session."""
    built = {}

    def corpus_of(workload):
        if workload not in built:
            directory = tmp_path_factory.mktemp(workload)
            built[workload] = directory, corpus.write(workload, CORPUS_SEED, str(directory), str(ROOT))
        return built[workload]

    return corpus_of
