import numpy as np

from eechain import backend_name
from eechain.lattice import fourier_profile


def test_backend_identifies_itself():
    assert backend_name() == "numpy"


def test_dispatch_points_at_a_real_backend():
    w = np.ones(8)
    out = fourier_profile(w)
    expect = np.zeros(8, complex)
    expect[0] = 0.5
    np.testing.assert_allclose(out, expect, atol=1e-15)
