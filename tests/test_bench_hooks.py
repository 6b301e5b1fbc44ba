"""The benchmark's span tracer (perfbench/tracer.py) patches certrom functions
and methods by name, through the owner's own attribute dictionary. A hook
whose method moved into a base class, or was renamed, would only surface when
the benchmark runs; this test makes the suite catch it."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import certrom.mlp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_hooks_install_and_restore(tracer_module):
    tracer = tracer_module.Tracer()
    owners = {owner for owner, _, _ in tracer_module.SPANNED}
    before = {owner: dict(vars(owner)) for owner in owners}
    try:
        tracer.install()
        patched = list(tracer._patches)
        for owner, attr, _ in tracer_module.SPANNED:
            assert vars(owner)[attr] is not before[owner][attr], (owner, attr)
    finally:
        tracer.restore()

    assert len(patched) > len(tracer_module.SPANNED)
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            assert vars(owner)[attr] is value, (owner, attr)


def test_tracer_counts_one_adam_step_per_batch(tracer_module):
    n, batch, epochs = 100, 16, 3
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-1, 1, size=(n, 3)), rng.uniform(-1, 1, size=(n, 2))
    config = certrom.mlp.TrainConfig(batch_size=batch, max_epochs=epochs, patience=epochs)
    n_train = n - round(config.validation_fraction * n)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        result = certrom.mlp.mlp_train(x, y, [3, 8, 2], config)
    finally:
        tracer.restore()
    assert result.epochs == epochs
    assert tracer.counts["adam_steps"] == epochs * math.ceil(n_train / batch) == 18
    assert tracer.names == ["mlp.train"]
