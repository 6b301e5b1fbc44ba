"""The public surface holds only what the program runs: test references live
in tests/oracles.py, no option is kept that no caller sets, and the cascade
answers outputs only."""

import dataclasses
import inspect
import pathlib
import re

import certrom
from certrom import AdaptiveModel, FomProblem, KernelConfig, RbRom, make_adaptive_model
from certrom import hapod, kernels, mlp, rb


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


def test_the_cascade_certifies_outputs_only():
    public = [name for name, _ in inspect.getmembers(AdaptiveModel, inspect.isfunction) if not name.startswith("_")]
    assert sorted(public) == ["eval_output", "query"]
    assert not hasattr(FomProblem, "lift")
    assert not hasattr(RbRom, "reconstruct")
    assert not hasattr(kernels.KernelModel, "rkhs_residual_decay")
    for module in (certrom, hapod):
        for name in ("save_basis", "load_basis"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_only_the_fe_layer_reads_the_gram():
    # the Gram builds the energy factor; every other module works in whitened coordinates
    package = pathlib.Path(certrom.__file__).parent
    readers = {path.stem for path in package.glob("*.py") if re.search(r"\.gram\b", path.read_text())}
    assert readers <= {"fem", "fom", "problems"}, sorted(readers)
