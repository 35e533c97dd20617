import numpy as np

from eechain import LatticeSpec, backend_name
from eechain.lattice import fourier_profile


def test_backend_identifies_itself():
    assert backend_name() == "numpy"


def test_dispatch_points_at_a_real_backend():
    # N = 8 unfolds the L = 4 weights to the 8 modes
    (out,) = fourier_profile(LatticeSpec(n_sites=8), [(np.ones(4), 1.0)], np.arange(8))
    expect = np.zeros(8, complex)
    expect[0] = 0.5
    np.testing.assert_allclose(out, expect, atol=1e-15)
