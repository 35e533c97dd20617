import dataclasses
import json
import math
import re
import typing
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eechain import (
    EmptySeries,
    EntropyPoint,
    InvalidParameter,
    IoError,
    SweepTable,
    emit_plot,
    emit_table,
    parse_table,
)
from eechain import output

INF = math.inf


def _table():
    return SweepTable(
        rows=(
            EntropyPoint(z=1, beta=INF, n=100, na=10, epsilon=1.0, mass=0.0,
                         entropy=2.00152345679),
            EntropyPoint(z=2, beta=0.5, n=100, na=10, epsilon=1.0, mass=0.25,
                         entropy=13.5),
        )
    ).sorted()


def test_csv_bytes_exact():
    data = emit_table(_table(), "csv")
    assert data == (
        b"z,beta,n,na,epsilon,mass,entropy\n"
        b"1,inf,100,10,1,0,2.00152345679\n"
        b"2,0.5,100,10,1,0.25,13.5\n"
    )


def test_json_roundtrip():
    table = _table()
    data = emit_table(table, "json")
    back = parse_table(data)
    assert back.rows[0].beta == INF
    assert [r.entropy for r in back.rows] == [r.entropy for r in table.rows]


def test_csv_roundtrip_is_byte_stable():
    table = _table()
    once = emit_table(table, "csv")
    assert emit_table(parse_table(once), "csv") == once


def test_table_columns_follow_entropy_point_fields():
    names = [f.name for f in dataclasses.fields(EntropyPoint)]
    table = _table()
    header = emit_table(table, "csv").decode().splitlines()[0]
    assert header.split(",") == names
    assert all(list(obj) == names for obj in json.loads(emit_table(table, "json")))
    for fmt in ("csv", "json"):
        back = parse_table(emit_table(table, fmt))
        assert back.rows == table.rows
        types = [type(getattr(row, name)) for row in back.rows for name in names]
        assert types == list(typing.get_type_hints(EntropyPoint).values()) * len(table)


def test_json_takes_numpy_integer_columns():
    row = dataclasses.replace(_table().rows[0], z=np.int64(1), n=np.int64(100))
    assert emit_table(SweepTable(rows=(row,)), "json") == emit_table(
        SweepTable(rows=_table().rows[:1]), "json"
    )


def test_parse_rejects_garbage():
    with pytest.raises(IoError):
        parse_table(b"nonsense,header\n1,2\n")
    with pytest.raises(IoError):
        parse_table(b"z,beta,n,na,epsilon,mass,entropy\n1,2,3\n")
    with pytest.raises(IoError):
        parse_table(b"[{\"z\": 1}]")
    with pytest.raises(IoError):
        parse_table(b"[not json")
    with pytest.raises(IoError):  # a row that is not an object raised TypeError
        parse_table(b"[1]")
    row = json.loads(emit_table(_table(), "json"))[0]
    with pytest.raises(IoError):  # an int beyond a float raised OverflowError
        parse_table(json.dumps([{**row, "entropy": 10**400}]))


@pytest.mark.parametrize("column, value", [("n", 10.7), ("na", 2.5), ("z", True)])
def test_json_integer_columns_take_only_integers(column, value):
    # int() read these as n = 10, N_A = 2 and z = 1; the CSV path rejects 10.0
    row = json.loads(emit_table(_table(), "json"))[0]
    assert parse_table(json.dumps([row])).rows == _table().rows[:1]
    with pytest.raises(IoError):
        parse_table(json.dumps([{**row, column: value}]))


CSV_ROW = "1,inf,100,10,1,0,2.5"


@pytest.mark.parametrize(
    "row",
    [
        "-3,-1,0,-5,nan,-2,nan",  # every column outside its range
        "1,inf,10,20,1,0,2.5",  # N_A = 20 > N = 10
        "1,inf,1_0,10,1,0,2.5",  # int() reads 1_0 as 10
        "1,1_0.5,100,10,1,0,2.5",  # float() reads 1_0.5 as 10.5
        "1, inf,100,10,1,0,2.5",  # a leading space
        "1,inf,100,10,1,0,-inf",  # a negative entropy
    ],
)
def test_csv_rows_outside_the_model_raise(row):
    header = output.CSV_HEADER + "\n"
    assert len(parse_table(header + CSV_ROW + "\n").rows) == 1
    with pytest.raises(IoError):
        parse_table(header + row + "\n")


@pytest.mark.parametrize(
    "column, value",
    [
        ("z", -3),
        ("beta", -1.0),
        ("beta", "1_0.5"),
        ("beta", " inf"),
        ("n", 0),
        ("na", 0),
        ("na", 101),  # N_A > N = 100
        ("epsilon", math.nan),
        ("mass", -2.0),
        ("entropy", math.nan),
        ("entropy", -INF),
    ],
)
def test_json_rows_outside_the_model_raise(column, value):
    row = json.loads(emit_table(_table(), "json"))[0]
    assert parse_table(json.dumps([row])).rows == _table().rows[:1]
    with pytest.raises(IoError):
        parse_table(json.dumps([{**row, column: value}]))


def test_unknown_format():
    with pytest.raises(IoError):
        emit_table(_table(), "xml")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 9),
            st.one_of(st.just(INF), st.floats(1e-6, 1e6)),
            st.integers(2, 10000),
            st.integers(1, 5000),
            st.floats(1e-3, 10.0),
            st.floats(0.0, 10.0),
            st.floats(0.0, 100.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_roundtrip_fixpoint_property(raw):
    # parse_table takes only N_A <= N
    rows = tuple(
        EntropyPoint(z=a, beta=b, n=max(c, d), na=d, epsilon=e, mass=f, entropy=g)
        for a, b, c, d, e, f, g in raw
    )
    table = SweepTable(rows=rows).sorted()
    for fmt in ("csv", "json"):
        once = emit_table(table, fmt)
        again = emit_table(parse_table(once), fmt)
        assert once == again


# ---------------------------------------------------------------- plotting


def _series():
    x = np.linspace(1, 10, 20)
    return [(x, np.log(x), "log"), (x, 0.1 * x, "linear")]


def test_plot_basic_svg():
    data = emit_plot(_series(), {"xlabel": "x", "ylabel": "S", "title": "demo"})
    text = data.decode()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 2
    assert "demo" in text and ">x<" in text and ">S<" in text
    # repeated rendering is deterministic
    assert emit_plot(_series(), {"xlabel": "x", "ylabel": "S", "title": "demo"}) == data


def test_plot_reference_lines_and_log_axis():
    data = emit_plot(
        _series(),
        {"xscale": "log", "hlines": [(2.0, "bound")]},
    ).decode()
    assert "stroke-dasharray" in data
    assert "bound" in data


def test_plot_escapes_every_label():
    # a label holding & or < made an SVG that no XML parser reads
    axes = {
        "title": "S & <T>",
        "xlabel": "x<1 & y>2",
        "ylabel": "<S>",
        "hlines": [(1.5, "a & b < c")],
    }
    svg = ElementTree.fromstring(emit_plot([([1, 2], [1, 2], "a<b & c")], axes))
    texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
    for label in ("a<b & c", "S & <T>", "x<1 & y>2", "<S>", "a & b < c"):
        assert label in texts


def test_plot_empty_gates():
    with pytest.raises(EmptySeries):
        emit_plot([])
    with pytest.raises(EmptySeries):
        emit_plot([(np.array([1.0]), np.array([2.0]), "single")])


def test_plot_log_axis_needs_positive_values():
    x = np.linspace(-1, 1, 5)
    with pytest.raises(InvalidParameter):
        emit_plot([(x, x, "s")], {"xscale": "log"})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plot_rejects_values_that_are_not_finite(bad):
    # they went into the SVG as "nan" points, inf with a RuntimeWarning
    x = np.linspace(1.0, 2.0, 5)
    spoilt = np.where(x > 1.5, bad, x)
    for series, axes in [
        ([(x, spoilt, "s")], None),
        ([(spoilt, x, "s")], None),
        ([(x, x, "s")], {"hlines": [(bad, "h")]}),
    ]:
        with pytest.raises(InvalidParameter):
            emit_plot(series, axes)


@pytest.mark.parametrize(
    "value", [0.0, -3.5, 2.0**53, 1e17, -1e17, 1e308, -1e308, np.finfo(float).max]
)
def test_plot_takes_a_constant_series_of_any_size(value):
    # an empty range is widened by 1 where that is exact; at 2^53 and up
    # lo + 1 rounded back to lo and the plot raised InvalidParameter
    x = np.array([1.0, 2.0])
    svg = emit_plot([(x, np.full(2, value), "s")]).decode()
    assert "nan" not in svg and "inf" not in svg
    xs, ys = _tick_positions(svg)
    assert len(xs) == len(ys) == 5
    assert all(output._MT <= v <= output._H - output._MB for v in ys)


def _tick_positions(svg):
    """Pixel positions of the x and y axis tick marks in an emit_plot SVG."""
    bottom = output._H - output._MB
    xs = re.findall(rf'<line x1="(\S+)" y1="{bottom}" x2="\S+" y2="{bottom + 5}"', svg)
    ys = re.findall(rf'<line x1="{output._ML - 5}" y1="(\S+)" x2="{output._ML}"', svg)
    return [float(v) for v in xs], [float(v) for v in ys]


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1.01, 1e6), st.booleans())
@example(2.0, 8.0, True)  # the N_A axis of sweep --nas 2,4,8,16
@example(0.5, 4.0, True)  # a beta axis inside one decade
def test_plot_ticks_lie_inside_the_frame(lo, ratio, xlog):
    x = np.geomspace(lo, lo * ratio, 5)
    axes = {"xscale": "log" if xlog else "linear"}
    xs, ys = _tick_positions(emit_plot([(x, np.sqrt(x), "s")], axes).decode())
    assert len(xs) >= 2 and len(ys) == 5
    assert all(output._ML <= v <= output._W - output._MR for v in xs)
    assert all(output._MT <= v <= output._H - output._MB for v in ys)
