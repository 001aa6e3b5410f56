"""Fixtures shared by the test modules."""

import inspect
import os

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_path():
    """Put src on PYTHONPATH for the `python -m hardy.cli` subprocesses;
    pytest's own pythonpath setting reaches only this process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture()
def transforms(monkeypatch):
    """Every numpy.fft.fft / ifft / rfft / irfft call as (name, input
    shape), and every np.roll call as ("roll", shape)."""
    log = []

    def counted(name, fn):
        def call(a, *args, **kwargs):
            log.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return call

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    roll = counted("roll", np.roll)
    monkeypatch.setattr(np, "roll", roll)
    # fftshift and ifftshift call the roll bound in their own module
    monkeypatch.setitem(inspect.unwrap(np.fft.fftshift).__globals__, "roll",
                        roll)
    return log


@pytest.fixture()
def failing_suite(monkeypatch):
    """lemma-4.2 swapped for a suite of two rows, the second above its
    threshold of 1e-12."""
    from hardy import verify

    def suite(config):
        return (verify._check("split_residual", 0.0, 1e-12),
                verify._check("averaging_agreement", 1e-3, 1e-12))

    monkeypatch.setitem(verify.REGISTRY, "lemma-4.2", suite)


@pytest.fixture()
def blas_threads():
    """The get and set thread-count functions of the OpenBLAS numpy
    loaded, its count set to 2 for the test and restored after; the test
    is skipped when no OpenBLAS is found."""
    from hardy import circlefn

    blas = circlefn._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS found in this process")
    get, set_ = blas
    before = int(get())
    set_(2)
    yield blas
    set_(before)
