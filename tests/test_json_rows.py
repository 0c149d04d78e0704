"""The row-by-row JSON matrix reader against a whole-document decode.

The oracle is the reader this one replaced: ``json.loads`` of the whole
file, then one ``np.array`` of the ``data`` list, falling back to an
entry-by-entry loop for rows that mix numbers and ``[re, im]`` pairs.
``load_matrix`` must return its dtype, shape and bytes on every valid
document, whatever the key order, whitespace or repeated keys.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpdo_kit.cli import InputError, load_matrix


def oracle_decode(data, shape):
    """The whole-document decode of a JSON matrix's ``data`` list."""
    rows, cols = shape
    assert len(data) == rows and all(len(row) == cols for row in data)
    try:
        arr = np.array(data)
    except ValueError:  # numbers mixed with pairs
        arr = None
    if arr is not None and arr.dtype.kind in "biuf":
        if arr.shape == shape:
            return arr.astype(float, copy=False)
        if arr.shape == (rows, cols, 2):
            return arr.astype(float, copy=False).view(complex)[..., 0]
    out = np.empty(shape, dtype=complex)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            out[i, j] = complex(*entry) if isinstance(entry, list) else complex(entry)
    return out


def oracle_load(text):
    doc = json.loads(text)
    out = oracle_decode(doc["data"], (doc["rows"], doc["cols"]))
    if np.iscomplexobj(out) and np.abs(out.imag).max(initial=0.0) == 0.0:
        return out.real
    return out


numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0.0, -0.0, 1, -1]),
)
pairs = st.lists(numbers, min_size=2, max_size=2)


@st.composite
def json_matrices(draw):
    """A valid JSON matrix document, as text, of real, pair and mixed rows."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry_of = {"real": numbers, "pairs": pairs, "mixed": st.one_of(numbers, pairs)}
    data = [
        draw(st.lists(entry_of[draw(st.sampled_from(sorted(entry_of)))], min_size=cols, max_size=cols))
        for _ in range(rows)
    ]
    members = [("rows", rows), ("cols", cols), ("data", data), ("note", {"data": [1, [2]]})]
    members = draw(st.permutations(members))
    # a repeated key keeps its last value, so decoys go in front
    decoys = draw(st.lists(st.sampled_from([("rows", 7), ("cols", 0), ("data", [[1.5, [2, 3]]])]), max_size=3))
    indent = draw(st.sampled_from([None, 0, 1, "\t"]))
    space = st.sampled_from(["", " ", "\n", "\r\n", "\t ", "\n    "])
    parts = [
        f"{draw(space)}{json.dumps(k)}{draw(space)}:{draw(space)}{json.dumps(v, indent=indent)}{draw(space)}"
        for k, v in decoys + members
    ]
    return draw(space) + "{" + ",".join(parts) + "}" + draw(space)


@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_matrices())
def test_load_matrix_matches_the_whole_document_decode(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    got, want = load_matrix(str(path)), oracle_load(text)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


GOOD = '{"rows": 2, "cols": 2, "data": [[1, 2.5], [3, 4]]}'


@pytest.mark.parametrize(
    "text, at",
    [
        ('{"rows": 2, "cols": 2, "data": [[1, 2], [3, "x"]]}', "[3, "),
        ('{"rows": 2, "cols": 2, "data": [[1, [2, 3, 4]], [3, 4]]}', "[1, "),
        ('{"rows": 2, "cols": 2, "data": [[1, 2], [3, 4]}', "}"),
        ('{"rows": 2, "cols": 2, "data": [[1, 2], [3, 4}', "}"),
        ('{"rows": 2, "cols": 2, "data": [[1, 2] [3, 4]]}', "[3, "),
        ('{"rows": 2, "cols": 2, "data": [[1, 2], [3 4]]}', "4]]"),
        ('{"rows": 2 "cols": 2, "data": [[1, 2], [3, 4]]}', '"cols"'),
        ('{"rows": 2, "cols" 2, "data": [[1, 2], [3, 4]]}', "2, \"data"),
        ('{"rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]} x', "x"),
        ('{"rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]}{}', "{}"),
        ('{"rows": 2, "cols": 2, "data": [[1, 2], [3, 4]],}', "}"),
        ('{"rows": 1, "cols": 1, "data": 5}', "5"),
        ('{"rows": 1, "cols": 1, "data": [5]}', "5]"),
        ('{"rows": 1, "cols": 1, "data": [[NaN]]}', "[NaN"),
        ('{"rows": 1, "cols": 2, "data": [[1, [Infinity, 0]]]}', "[1, "),
        ('{"rows": 1, "cols": 1, "data": [[1%s]]}' % ("0" * 400), "[1"),
    ],
    ids=[
        "bad-entry", "bad-pair", "missing-outer-bracket", "missing-row-bracket",
        "missing-row-comma", "missing-entry-comma", "missing-member-comma", "missing-colon",
        "trailing-word", "trailing-object", "trailing-comma", "data-number", "data-row-number",
        "nan", "infinity-pair", "integer-overflow",
    ],
)
def test_malformed_json_names_the_byte_offset(tmp_path, text, at):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InputError, match=r"byte \d+") as info:
        load_matrix(str(path))
    offset = int(re.search(r"byte (\d+)", str(info.value)).group(1))
    assert text.startswith(at, offset), (str(info.value), text[offset:])


@pytest.mark.parametrize(
    "raw,at",
    [
        ('{"note": "µµµµ", "rows": 2, "cols": 2, "data": [[1, 2], [3, "x"]]}'.encode(), b"[3, "),
        ('{"note": "日本", "rows": 2, "cols": 2, "data": [[1, 2], [3 4]]}'.encode(), b"4]]"),
        ('{"note": "µ", "rows": 2, "cols": 2, "data": 5}'.encode(), b"5}"),
        ('{"note": "µ", "rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]} x'.encode(), b"x"),
        (b'{"note": "\xff\xfe", "rows": 2, "cols": 2, "data": [[1, 2], [3, "x"]]}', b"[3, "),
    ],
    ids=["two-byte", "three-byte", "data-number", "trailing-word", "not-utf8"],
)
def test_malformed_json_names_the_byte_offset_past_multibyte_text(tmp_path, raw, at):
    # the offset counts bytes of the file, not characters of its text
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(InputError, match=r"byte \d+") as info:
        load_matrix(str(path))
    offset = int(re.search(r"byte (\d+)", str(info.value)).group(1))
    assert raw.startswith(at, offset), (str(info.value), raw[offset:])


def test_good_document_of_the_malformed_cases_loads(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(GOOD)
    assert load_matrix(str(path)).tobytes() == np.array([[1, 2.5], [3, 4]]).tobytes()


def test_load_matrix_peak_memory_stays_below_three_file_sizes(tmp_path):
    rng = np.random.default_rng(7)
    m = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    path = tmp_path / "big.json"
    pairs = np.stack((m.real, m.imag), axis=-1).tolist()
    path.write_text(json.dumps({"rows": 128, "cols": 128, "data": pairs}))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got = load_matrix(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == m.tobytes()
    assert peak < 3 * size, f"peak {peak / size:.2f}x the file size"
