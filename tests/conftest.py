import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import dcpnp

# Subprocesses that import dcpnp (external denoiser scripts, the CLI entry
# point) find the same copy as this session, installed or not.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(dcpnp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session", autouse=True)
def _warm_numeric_backends():
    # first-call costs (FFT plan cache, sparse kernels, BLAS thread pools)
    # otherwise land inside whichever timed criterion runs first
    np.fft.fft2(np.ones((8, 8)))
    m = sp.csr_matrix(np.eye(4))
    m @ np.ones(4)
    yield
