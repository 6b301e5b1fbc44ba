"""The public surface holds only what the program runs: test references live
in tests/oracles.py, and no option is kept that no caller sets."""

import dataclasses
import inspect

import certrom
from certrom import KernelConfig, make_adaptive_model
from certrom import hapod, mlp, rb


def test_test_references_are_not_in_the_package():
    for module in (certrom, hapod, mlp):
        for name in ("pod_modes", "mlp_loss_grad", "zero_params"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(certrom, "KernelModel")


def test_kernel_config_has_no_regularization():
    assert [f.name for f in dataclasses.fields(KernelConfig)] == ["gamma", "max_centers"]


def test_make_adaptive_model_takes_no_wiring_options():
    assert list(inspect.signature(make_adaptive_model).parameters) == [
        "problem", "eps", "ml_backend", "retrain", "batch_threshold", "seed",
    ]


def test_orthonormalizers_and_the_compression_take_no_gram():
    # energy-weighted sets are grown in whitened coordinates (EnergyFactor.whiten_states)
    for function in (rb.orthonormalize, hapod.gram_schmidt, hapod.IncrementalHapod, hapod._pod):
        assert "gram" not in inspect.signature(function).parameters, function.__name__
