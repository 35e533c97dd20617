"""Bad library input raises a typed error.

Every scalar argument of the library's entry points goes through the input
rules of eechain.lattice, so a wrong value raises InvalidParameter (an
EechainError): never a bare TypeError or IndexError, and never a value
that is silently taken for another, such as True for 1.
"""

import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eechain import (
    EechainError,
    InvalidParameter,
    LatticeSpec,
    bogoliubov_angle,
    build_correlation_matrix,
    cft_reference,
    default_high_temperature_betas,
    default_low_temperature_betas,
    ee_cmera,
    emit_plot,
    energy_density,
    entropy_of,
    g_closed_form,
    g_from_phi_numeric,
    geodesic_length,
    geodesic_length_massive,
    many_body_state,
    minimizing_angle,
    reduced_entropy,
    regime_scales,
    sweep_entropy,
)

SPEC = LatticeSpec(n_sites=8, z_exponent=1, mass=0.5)
ORACLE_SPEC = LatticeSpec(n_sites=3, z_exponent=1, mass=0.5)


@functools.cache
def _oracle_state():
    return many_body_state(ORACLE_SPEC, 2.0)


# Each entry point as a function of its scalar arguments, every default a
# valid value.  A subsystem's sites and a sweep axis's values count as
# scalars.
def _lattice_spec(n_sites=8, z=2, mass=0.5, spacing=1.0, theta=0.25):
    return LatticeSpec(n_sites, z, mass, spacing, theta)


def _entropy_of(beta=2.0, site0=0, site1=3):
    return entropy_of(SPEC, beta, [site0, site1])


def _build_correlation_matrix(beta=2.0, site0=0, site1=3):
    return build_correlation_matrix(SPEC, beta, [site0, site1])


def _sweep_entropy(
    z=1, beta=2.0, na=2, n_sites=8, mass=0.5, spacing=1.0, theta=0.0, jobs=None
):
    return sweep_entropy((z,), (beta,), (na,), n_sites, mass, spacing, theta, jobs)


def _regime_scales(na=2):
    return regime_scales(SPEC, na)


def _many_body_state(beta=2.0):
    return many_body_state(ORACLE_SPEC, beta)


def _reduced_entropy(site0=0, site1=2):
    return reduced_entropy(_oracle_state(), [site0, site1])


def _bogoliubov_angle(k=0.5, z=1, m=0.3):
    return bogoliubov_angle(k, z, m)


def _minimizing_angle(k=0.5, z=1, m=0.3):
    return minimizing_angle(k, z, m)


def _g_closed_form(u=0.0, z=1, m=0.3, cutoff=1.0):
    return g_closed_form(u, z, m, cutoff)


def _geodesic_length(g_const=1.0, length=2.0, eps=1.0):
    return geodesic_length(g_const, length, eps)


def _geodesic_length_massive(z=1, m=0.3, cutoff=1.0, length=2.0, eps=1.0, n_points=101):
    return geodesic_length_massive(z, m, cutoff, length, eps, n_points)


def _ee_cmera(z=1, length=2.0, eps=1.0, c=2.0):
    return ee_cmera(z, length, eps, c)


def _emit_plot(x=1.0, y=1.0, hline=2.0):
    return emit_plot([([x, 3.0], [y, 2.0], "s")], {"hlines": [(hline, "h")]})


MISSING = object()  # a params key left out of cft_reference's dict


def _cft_reference(kind, **params):
    return cft_reference(kind, {k: v for k, v in params.items() if v is not MISSING})


def _cft_finite_size(n=100, na=30, c=MISSING):
    return _cft_reference("finite_size", n=n, na=na, c=c)


def _cft_thermal(l=40.0, beta=20.0, eps=MISSING, c=MISSING):
    for kind in ("thermal", "low_T_expansion", "high_T_expansion"):
        _cft_reference(kind, l=l, beta=beta, eps=eps, c=c)


def _default_low_temperature_betas(z=2, na=10, eps=1.0):
    return default_low_temperature_betas(z, na, eps)


def _default_high_temperature_betas(z=2, na=60, eps=1.0):
    return default_high_temperature_betas(z, na, eps)


ENTRY_POINTS = {
    "LatticeSpec": _lattice_spec,
    "entropy_of": _entropy_of,
    "build_correlation_matrix": _build_correlation_matrix,
    "sweep_entropy": _sweep_entropy,
    "regime_scales": _regime_scales,
    "many_body_state": _many_body_state,
    "reduced_entropy": _reduced_entropy,
    "bogoliubov_angle": _bogoliubov_angle,
    "minimizing_angle": _minimizing_angle,
    "g_closed_form": _g_closed_form,
    "geodesic_length": _geodesic_length,
    "geodesic_length_massive": _geodesic_length_massive,
    "ee_cmera": _ee_cmera,
    "emit_plot": _emit_plot,
    "cft_finite_size": _cft_finite_size,
    "cft_thermal": _cft_thermal,
    "default_low_temperature_betas": _default_low_temperature_betas,
    "default_high_temperature_betas": _default_high_temperature_betas,
}

# calls that must raise InvalidParameter; all but the two
# geodesic_length_massive rows raised a bare TypeError, IndexError,
# ValueError, ZeroDivisionError or KeyError, or were accepted, before every
# entry point shared the input rules
BAD_CALLS = [
    ("LatticeSpec", {"mass": "x"}),
    ("LatticeSpec", {"mass": None}),
    ("LatticeSpec", {"mass": 1j}),
    ("LatticeSpec", {"spacing": "1"}),
    ("LatticeSpec", {"theta": "0"}),
    ("LatticeSpec", {"theta": None}),
    ("LatticeSpec", {"z": True}),
    ("entropy_of", {"beta": True}),
    ("build_correlation_matrix", {"site0": True, "site1": False}),
    ("sweep_entropy", {"na": True}),
    ("regime_scales", {"na": True}),
    ("sweep_entropy", {"jobs": 2.5}),
    ("sweep_entropy", {"jobs": "2"}),
    ("geodesic_length_massive", {"n_points": 2.5}),
    ("geodesic_length_massive", {"m": -1.0}),
    ("bogoliubov_angle", {"k": "x", "z": 1, "m": 0}),
    ("bogoliubov_angle", {"k": 1.0, "z": "x", "m": 0}),
    ("g_closed_form", {"z": 1, "m": "x"}),
    ("minimizing_angle", {"k": 1.0, "z": None, "m": 0.5}),
    ("ee_cmera", {"z": "x", "length": 2.0, "eps": 1.0}),
    ("geodesic_length", {"g_const": 1.0, "length": 2.0, "eps": 0.0}),
    ("ee_cmera", {"z": 1, "length": 2.0, "eps": 0.0}),
    ("cft_thermal", {"l": 1.0, "beta": 0.0}),
    ("cft_finite_size", {"n": 10, "na": MISSING}),
    ("ee_cmera", {"c": math.nan}),
    ("ee_cmera", {"c": math.inf}),
    ("ee_cmera", {"c": -2.0}),
    ("ee_cmera", {"c": 0.0}),
    ("emit_plot", {"y": math.nan}),
    ("emit_plot", {"hline": math.inf}),
    ("emit_plot", {"x": -1e308}),  # overflowed the pixel scale
    # a bare OverflowError from float(): an int beyond the largest float
    ("LatticeSpec", {"mass": 10**400}),
    ("entropy_of", {"beta": 10**400}),
    ("cft_thermal", {"l": 10**400}),
    # the default beta grids computed on these without a check
    ("default_low_temperature_betas", {"z": True}),
    ("default_low_temperature_betas", {"na": 0}),
    ("default_low_temperature_betas", {"eps": -1}),
    ("default_high_temperature_betas", {"z": True}),
    ("default_high_temperature_betas", {"na": 0}),
    ("default_high_temperature_betas", {"eps": -1}),
]


@pytest.mark.parametrize("name, kwargs", BAD_CALLS)
def test_bad_input_raises_invalid_parameter(name, kwargs):
    with pytest.raises(InvalidParameter):
        ENTRY_POINTS[name](**kwargs)


@pytest.mark.parametrize("subsystem", [5, None, 2.0])
def test_subsystem_that_is_not_a_sequence_raises_invalid_parameter(subsystem):
    with pytest.raises(InvalidParameter):
        build_correlation_matrix(SPEC, 2.0, subsystem)
    with pytest.raises(InvalidParameter):
        reduced_entropy(_oracle_state(), subsystem)


@pytest.mark.parametrize("values", ["x", None, ["1", "2"], [1j], [True, False]])
def test_non_numeric_arrays_raise_invalid_parameter(values):
    calls = [
        lambda: bogoliubov_angle(values, 1, 0.3),
        lambda: minimizing_angle(values, 1, 0.3),
        lambda: g_closed_form(values, 1, 0.3),
        lambda: energy_density(values, values, 1, 0.3),
        lambda: g_from_phi_numeric(values, values),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter):
            call()


_JUNK = st.one_of(
    st.sampled_from(
        [True, False, np.True_, np.False_, "1", "x", None, 1j, 2 + 0j,
         math.nan, math.inf, -math.inf]
    ),
    st.integers(max_value=-1),
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).filter(
        lambda x: not x.is_integer()
    ),
)


@st.composite
def _calls(draw):
    """(entry point, kwargs): one to all of its scalars replaced by junk."""
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    params = list(inspect.signature(ENTRY_POINTS[name]).parameters)
    chosen = draw(st.lists(st.sampled_from(params), min_size=1, unique=True))
    return name, {param: draw(_JUNK) for param in chosen}


def _with_bad_calls_as_examples(test):
    """test with every row of BAD_CALLS as an explicit @example."""
    for call in BAD_CALLS:
        test = example(call)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(_calls())
@_with_bad_calls_as_examples
# 2 eps/(pi l) underflows to 0: DegenerateInterval, not RuntimeWarnings
@example(("geodesic_length_massive", {"length": 1e300, "eps": 1e-30}))
# k^(2z) or k = cutoff e^u overflows, or k underflows to 0: g's limits
@example(("g_closed_form", {"u": 400.0, "m": 0.5}))
@example(("g_closed_form", {"cutoff": 1.5e300}))
@example(("g_closed_form", {"u": -800.0}))
@example(("g_closed_form", {"u": 800.0, "z": 3}))
@example(("geodesic_length_massive", {"m": 0.5, "cutoff": 1e-320, "length": 1e10}))
def test_any_library_input_raises_typed_or_succeeds(call):
    name, kwargs = call
    try:
        ENTRY_POINTS[name](**kwargs)
    except EechainError:
        pass
