"""Test doubles shared by the test modules."""

import numpy as np

from dcpnp.operators import LinearOperator
from dcpnp.priors import Denoiser


class IdentityOperator(LinearOperator):
    """A = I on a real grid of `shape`: the smallest exact operator."""

    def __init__(self, shape: tuple[int, int]):
        self.domain_shape = shape
        self.range_shape = shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        self._check_domain(x)
        return np.array(x, copy=True)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        self._check_range(y)
        return np.array(y, copy=True)


class IdentityDenoiser(Denoiser):
    """D(v) = v: the prior that changes nothing."""

    kind = "identity"

    def _denoise(self, v, sigma, t):
        return np.array(v, copy=True)
