"""Session fixtures for the acceptance suite.

The default-configuration model is trained once per session and shared by
every acceptance criterion that needs a trained checkpoint.
"""

from __future__ import annotations

import time

import pytest

from prosodiff.config import RunConfig
from prosodiff.corpus import generate_corpus
from prosodiff.training import build_models, train


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """Default desk-scale config (K=4, N=250, T=200, 12-layer denoiser),
    trained to its full step budget. Returns everything acceptance needs."""
    run = RunConfig()
    out_dir = tmp_path_factory.mktemp("default_run")
    corpus = generate_corpus(run.corpus, run.seed)
    bundle = build_models(run, corpus.stats)
    started = time.time()
    checkpoint = train(bundle, corpus, run.train, out_dir)
    wall_seconds = time.time() - started
    return {
        "run": run,
        "corpus": corpus,
        "bundle": bundle,
        "checkpoint": checkpoint,
        "out_dir": out_dir,
        "train_seconds": wall_seconds,
    }
