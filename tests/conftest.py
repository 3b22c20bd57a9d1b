"""Shared brute-force oracles used across the test modules.

These stay deliberately naive (index-map enumeration, explicit loops)
so they are independent of the library's vectorized implementations.
"""

import os

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def _subprocesses_import_src(monkeypatch):
    """Let ``python -m tenkit.cli`` subprocesses import tenkit from src/,
    as ``pythonpath = ["src"]`` in pyproject.toml does for this process."""
    paths = [SRC, os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))


def def1_unfold(tensor, mode):
    """Mode-n unfolding by brute-force enumeration of the index map:
    row i_n, column sum_{k != n} i_k * prod_{m > k, m != n} I_m."""
    shape = tensor.shape
    n_cols = 1
    for k, s in enumerate(shape):
        if k != mode:
            n_cols *= s
    out = np.zeros((shape[mode], n_cols))
    for idx in np.ndindex(*shape):
        col = 0
        for k in range(len(shape)):
            if k == mode:
                continue
            stride = 1
            for m in range(k + 1, len(shape)):
                if m != mode:
                    stride *= shape[m]
            col += idx[k] * stride
        out[idx[mode], col] = tensor[idx]
    return out


def loop_conv1d(signal, kernel):
    """Valid 1-D cross-correlation by explicit summation."""
    n, k = len(signal), len(kernel)
    return np.array(
        [sum(kernel[j] * signal[i + j] for j in range(k)) for i in range(n - k + 1)]
    )


def loop_conv2d(x, w):
    """Direct multichannel 2-D cross-correlation by quadruple loop."""
    t, c, kh, kw = w.shape
    _, h, wd = x.shape
    out = np.zeros((t, h - kh + 1, wd - kw + 1))
    for ti in range(t):
        for y in range(h - kh + 1):
            for xx in range(wd - kw + 1):
                acc = 0.0
                for ci in range(c):
                    for j in range(kh):
                        for i in range(kw):
                            acc += w[ti, ci, j, i] * x[ci, y + j, xx + i]
                out[ti, y, xx] = acc
    return out


def central_difference(fun, params, h=1e-5):
    """Central finite-difference gradient of a scalar function of one
    ndarray parameter."""
    grad = np.zeros_like(params)
    flat = params.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fun()
        flat[i] = orig - h
        fm = fun()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def rel_err(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
