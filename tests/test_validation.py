"""Bad library input raises a typed error.

Every scalar argument of the library's entry points goes through the input
rules of eechain.lattice, so a wrong value raises InvalidParameter (an
EechainError): never a bare TypeError or IndexError, and never a value
that is silently taken for another, such as True for 1.
"""

import functools
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eechain
from eechain import (
    CorrelationMatrix,
    DuplicateSite,
    EechainError,
    EigenvalueOutOfRange,
    EntropyPoint,
    InvalidParameter,
    LatticeSpec,
    NotHermitian,
    SiteOutOfRange,
    SweepTable,
    bogoliubov_angle,
    build_correlation_matrix,
    cft_reference,
    default_high_temperature_betas,
    default_low_temperature_betas,
    ee_cmera,
    emit_plot,
    energy_density,
    entanglement_entropy,
    entropy_of,
    fit_high_temperature,
    fit_low_temperature,
    g_closed_form,
    g_from_phi_numeric,
    geodesic_length,
    geodesic_length_massive,
    hermitian_eigenvalues,
    many_body_state,
    metric_guu,
    minimizing_angle,
    reduced_entropy,
    regime_scales,
    sweep_entropy,
    validate_beta,
)
from eechain.lattice import (
    MAX_CHAIN_SITES,
    validate_finite_array,
    validate_real_array,
    validate_subsystem,
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


def _geodesic_length_massive(z=1, m=0.3, cutoff=1.0, length=2.0, eps=1.0):
    return geodesic_length_massive(z, m, cutoff, length, eps)


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


def _validate_beta(beta=2.0):
    return validate_beta(beta)


def _metric_guu(u=0.0, z=1, m=0.3, cutoff=1.0):
    return metric_guu(u, z, m, cutoff)


def _entanglement_entropy(c0=0.2, c1=0.7):
    return entanglement_entropy([c0, c1])


def _correlation_matrix(p=0.1, c=0.2):
    return CorrelationMatrix(same=[[p]], cross=[[c]]).entries


def _hermitian_eigenvalues(p=0.1, c=0.2):
    return hermitian_eigenvalues(CorrelationMatrix(same=[[p]], cross=[[c]]))


def _energy_density(k0=-1.0, k1=1.0, phi0=0.3, phi1=0.2, z=1, m=0.3):
    return energy_density([k0, k1], [phi0, phi1], z, m)


# a uniform grid of 8 samples whose first one, u0, is an argument
U_TAIL = tuple(-1.0 + 0.01 * i for i in range(1, 8))


def _g_from_phi_numeric(u0=-1.0, phi0=0.3):
    return g_from_phi_numeric([u0, *U_TAIL], [phi0, *(0.3 + 0.1 * u for u in U_TAIL)])


# z = 1 rows of one site: eight in the low-T window x = 1/beta < 0.3, and
# eight unsaturated ones in the high-T window x > 3
FIT_TABLE = SweepTable(
    rows=tuple(
        EntropyPoint(1, float(beta), 8, 1, 1.0, 0.0, 0.5 + 0.1 / beta)
        for beta in (*np.geomspace(4.0, 40.0, 8), *np.geomspace(0.01, 0.3, 8))
    )
)


def _fit_low_temperature(z=1):
    return fit_low_temperature(FIT_TABLE, z)


def _fit_high_temperature(z=1):
    return fit_high_temperature(FIT_TABLE, z)


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
    "validate_beta": _validate_beta,
    "metric_guu": _metric_guu,
    "entanglement_entropy": _entanglement_entropy,
    "CorrelationMatrix": _correlation_matrix,
    "hermitian_eigenvalues": _hermitian_eigenvalues,
    "fit_low_temperature": _fit_low_temperature,
    "fit_high_temperature": _fit_high_temperature,
    "energy_density": _energy_density,
    "g_from_phi_numeric": _g_from_phi_numeric,
}

# The public names that are not in ENTRY_POINTS, with the reason.
NOT_ENTRY_POINTS = {
    "EntropyPoint": "a record of one computed entropy; the library builds it",
    "FitResult": "a record the fits return",
    "FockState": "a record many_body_state returns",
    "ModeGrid": "a record build_mode_grid returns",
    "SweepTable": "a record of EntropyPoints that sweeps and parse_table return",
    "backend_name": "takes no argument",
    "build_mode_grid": "takes a LatticeSpec alone, whose fields are checked",
    "single_particle_hamiltonian": "takes a LatticeSpec alone, whose fields are checked",
    "mode_correlators": "takes a FockState alone, which many_body_state built",
    "cft_reference": "in ENTRY_POINTS as cft_finite_size and cft_thermal, one per key set",
    "emit_table": "takes a SweepTable; an unknown format raises IoError (test_output)",
    "parse_table": "reads table text; malformed text raises IoError (test_output)",
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
    ("geodesic_length_massive", {"cutoff": 0.0}),
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
    # an N whose N*N does not fit an int64: a bare OverflowError or
    # ValueError, or wrapped phases at N = 3037000500
    ("LatticeSpec", {"n_sites": 10**400}),
    ("LatticeSpec", {"n_sites": 2**70}),
    ("LatticeSpec", {"n_sites": MAX_CHAIN_SITES + 1}),
    # a bool spectrum read as 1 and 0; a bare ValueError and TypeError
    ("entanglement_entropy", {"c0": True, "c1": False}),
    ("entanglement_entropy", {"c0": "a"}),
    ("entanglement_entropy", {"c0": 0.5 + 0j}),
    # a bool block read as 1, or a string block
    ("CorrelationMatrix", {"p": True}),
    ("hermitian_eigenvalues", {"c": "x"}),
    # the fits took True and 1.0 for z = 1
    ("fit_low_temperature", {"z": True}),
    ("fit_high_temperature", {"z": 1.0}),
    # a ragged nested sequence: a bare ValueError from np.asarray
    ("entanglement_entropy", {"c0": [0.5], "c1": [0.5, 0.2]}),
    ("bogoliubov_angle", {"k": [[1.0, 2.0], [1.0]]}),
    ("CorrelationMatrix", {"p": [0.1, [0.2]]}),
    # a bool among numbers, read as 1.0
    ("entanglement_entropy", {"c0": True}),
    ("bogoliubov_angle", {"k": [True, 2.0]}),
    # non-finite samples: RuntimeWarnings and NaN; huge ones overflowed
    ("energy_density", {"k0": math.inf}),
    ("energy_density", {"phi1": math.nan}),
    ("energy_density", {"k0": -1e308}),
    ("g_from_phi_numeric", {"u0": math.inf}),
    ("g_from_phi_numeric", {"phi0": math.nan}),
    ("g_from_phi_numeric", {"phi0": -1e308}),
]


@pytest.mark.parametrize("name, kwargs", BAD_CALLS)
def test_bad_input_raises_invalid_parameter(name, kwargs):
    with pytest.raises(InvalidParameter):
        ENTRY_POINTS[name](**kwargs)


def test_every_public_callable_is_an_entry_point_or_exempt():
    # every function and non-exception class eechain exports checks its
    # input by the rules above, or is listed with the reason it has none
    public = {
        name for name in eechain.__all__
        if callable(obj := getattr(eechain, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert public - set(ENTRY_POINTS) == set(NOT_ENTRY_POINTS)


def test_largest_chain_keeps_the_fermi_sea_closed_form():
    # N*N < 2^63 at the largest N: a massless ground state needs no mode grid
    largest, smaller = (
        entropy_of(LatticeSpec(n, 1, boundary_phase=0.25), math.inf, range(200))
        for n in (MAX_CHAIN_SITES, 10**9)
    )
    assert largest.n == MAX_CHAIN_SITES
    assert abs(largest.entropy - smaller.entropy) < 1e-12


@pytest.mark.parametrize("eigs", [[0.5, math.nan], [math.nan]])
def test_spectrum_with_nan_raises_out_of_range(eigs):
    # NaN passed the old range check and read as a pure mode: S = 0
    with pytest.raises(EigenvalueOutOfRange):
        entanglement_entropy(eigs)


@pytest.mark.parametrize("eigs", [[[0.2, 0.3]], 0.5])
def test_spectrum_that_is_not_1d_raises_invalid_parameter(eigs):
    with pytest.raises(InvalidParameter):
        entanglement_entropy(eigs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("block", ["same", "cross"])
def test_non_finite_block_raises_not_hermitian(bad, block):
    # a NaN asymmetry failed no `asym > tol` test, and the NaN spectrum read S = 0
    blocks = {"same": np.full((2, 2), 0.1), "cross": np.zeros((2, 2))}
    blocks[block][0, 1] = blocks[block][1, 0] = bad
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(CorrelationMatrix(**blocks))


@pytest.mark.parametrize(
    "same, cross",
    [
        (np.zeros((1, 3)), np.zeros((1, 3))),  # read as the spectrum [0.5, 0.5]
        (np.zeros((2, 2)), np.zeros((3, 3))),
        (np.zeros(2), np.zeros(2)),
        (np.zeros((0, 0)), np.zeros((0, 0))),
        ([[None]], [[0.0]]),
    ],
)
def test_blocks_not_square_numeric_of_one_shape_raise_invalid_parameter(same, cross):
    with pytest.raises(InvalidParameter):
        CorrelationMatrix(same=same, cross=cross)


def test_list_blocks_are_held_as_arrays():
    # list blocks raised a bare AttributeError in the eigensolve
    p, c = [[0.1, 0.05j], [-0.05j, 0.1]], [[0.2, 0.0], [0.0, 0.2]]
    listed = CorrelationMatrix(same=p, cross=c)
    arrays = CorrelationMatrix(same=np.array(p), cross=np.array(c))
    assert np.array_equal(hermitian_eigenvalues(listed), hermitian_eigenvalues(arrays))
    assert np.array_equal(listed.entries, arrays.entries)


@pytest.mark.parametrize(
    "same",
    [
        [[0.1, True], [True, 0.1]],  # read as 1.0
        [[0.1, np.True_], [np.True_, 0.1]],
        [np.array([True, False]), [0.5, 0.1]],
        [[0.1, 0.2], [0.2]],  # ragged: a bare ValueError
    ],
)
def test_blocks_with_bools_or_ragged_rows_raise_invalid_parameter(same):
    with pytest.raises(InvalidParameter):
        CorrelationMatrix(same=same, cross=np.zeros((2, 2)))


@pytest.mark.parametrize("subsystem", [5, None, 2.0])
def test_subsystem_that_is_not_a_sequence_raises_invalid_parameter(subsystem):
    with pytest.raises(InvalidParameter):
        build_correlation_matrix(SPEC, 2.0, subsystem)
    with pytest.raises(InvalidParameter):
        reduced_entropy(_oracle_state(), subsystem)


# a long input and the value its message must name
LONG_INPUTS = {
    "out of range": (lambda: validate_subsystem([*range(10**5), -3], 10**6), SiteOutOfRange, "-3"),
    "repeated": (lambda: validate_subsystem([*range(10**5), 7], 10**6), DuplicateSite, "7"),
    "not an integer": (
        lambda: validate_subsystem([*range(10**5), 1.5], 10**6), InvalidParameter, "1.5"
    ),
    "not finite": (
        lambda: validate_finite_array("x", [0.0] * 10**5 + [math.nan]), InvalidParameter, "nan"
    ),
}


@pytest.mark.parametrize("call, error, value", LONG_INPUTS.values(), ids=LONG_INPUTS.keys())
def test_message_names_the_offending_value_not_the_whole_input(call, error, value):
    with pytest.raises(error) as info:
        call()
    message = str(info.value)
    assert len(message) < 200
    assert value in re.findall(r"[-\w.]+", message)


@pytest.mark.parametrize(
    "values",
    [[0.0] * 10**5 + [True], [[0.0]] * 10**5 + [[0.0, 1.0]], [0.0] * 10**5 + [1j]],
    ids=["bool", "ragged", "complex"],
)
def test_message_quotes_a_long_array_in_short(values):
    with pytest.raises(InvalidParameter) as info:
        validate_real_array("x", values)
    assert len(str(info.value)) < 200


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
