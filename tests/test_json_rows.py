"""The row-by-row JSON matrix reader against a whole-document decode.

The oracle is the reader this one replaced: ``json.loads`` of the whole
file, then one ``np.array`` of the ``data`` list, falling back to an
entry-by-entry loop for rows that mix numbers and ``[re, im]`` pairs.
``load_matrix`` must return its dtype, shape and bytes on every valid
document, whatever the key order, whitespace or repeated keys.
"""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpdo_kit import cli
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


MALFORMED = [
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
]
MALFORMED_IDS = [
    "bad-entry", "bad-pair", "missing-outer-bracket", "missing-row-bracket",
    "missing-row-comma", "missing-entry-comma", "missing-member-comma", "missing-colon",
    "trailing-word", "trailing-object", "trailing-comma", "data-number", "data-row-number",
    "nan", "infinity-pair", "integer-overflow",
]


def error_offset(path) -> int:
    """The byte offset that loading a malformed file names."""
    with pytest.raises(InputError, match=r"byte \d+") as info:
        load_matrix(str(path))
    return int(re.search(r"byte (\d+)", str(info.value)).group(1))


@pytest.mark.parametrize("text, at", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_json_names_the_byte_offset(tmp_path, text, at):
    path = tmp_path / "bad.json"
    path.write_text(text)
    offset = error_offset(path)
    assert text.startswith(at, offset), text[offset:]


MULTIBYTE = [
    ('{"note": "µµµµ", "rows": 2, "cols": 2, "data": [[1, 2], [3, "x"]]}'.encode(), b"[3, "),
    ('{"note": "日本", "rows": 2, "cols": 2, "data": [[1, 2], [3 4]]}'.encode(), b"4]]"),
    ('{"note": "µ", "rows": 2, "cols": 2, "data": 5}'.encode(), b"5}"),
    ('{"note": "µ", "rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]} x'.encode(), b"x"),
    (b'{"note": "\xff\xfe", "rows": 2, "cols": 2, "data": [[1, 2], [3, "x"]]}', b"[3, "),
]
MULTIBYTE_IDS = ["two-byte", "three-byte", "data-number", "trailing-word", "not-utf8"]


@pytest.mark.parametrize("raw,at", MULTIBYTE, ids=MULTIBYTE_IDS)
def test_malformed_json_names_the_byte_offset_past_multibyte_text(tmp_path, raw, at):
    # the offset counts bytes of the file, not characters of its text
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    offset = error_offset(path)
    assert raw.startswith(at, offset), raw[offset:]


def test_good_document_of_the_malformed_cases_loads(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(GOOD)
    assert load_matrix(str(path)).tobytes() == np.array([[1, 2.5], [3, 4]]).tobytes()


def test_load_matrix_peak_memory_stays_below_two_and_a_half_matrices(tmp_path, monkeypatch, traced_memory):
    # a file of ~43 chunks: the window holds about one chunk of text, so the
    # peak is the rows and their stacked array (holding the file's whole
    # bytes and text peaked at 5.4 matrices)
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", 2**16)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    path = tmp_path / "big.json"
    pairs = np.stack((m.real, m.imag), axis=-1).tolist()
    path.write_text(json.dumps({"rows": 256, "cols": 256, "data": pairs}))
    assert path.stat().st_size > 40 * 2**16
    with traced_memory() as mem:
        got = load_matrix(str(path))
    assert got.tobytes() == m.tobytes()
    assert mem.peak < 2.5 * m.nbytes, f"peak {mem.peak / m.nbytes:.2f}x the matrix"


# ---------------------------------------------------------------------------
# the windowed read: chunks of a few bytes cut values, rows, characters and
# tokens anywhere, and every result and offset must be the whole file's


#: Chunk sizes that cut the documents above at every kind of place.
SMALL_CHUNKS = [1, 2, 3, 5, 8, 13]


@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_matrices(), st.integers(1, 16))
def test_load_matrix_in_small_chunks_matches_the_whole_document_decode(tmp_path, monkeypatch, text, chunk):
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
    path = tmp_path / "m.json"
    path.write_text(text)
    got, want = load_matrix(str(path)), oracle_load(text)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("text, at", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_json_in_small_chunks_names_the_byte_offset(tmp_path, monkeypatch, text, at, chunk):
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
    path = tmp_path / "bad.json"
    path.write_text(text)
    offset = error_offset(path)
    assert text.startswith(at, offset), text[offset:]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("raw,at", MULTIBYTE, ids=MULTIBYTE_IDS)
def test_malformed_json_in_small_chunks_names_the_byte_offset_past_multibyte_text(
    tmp_path, monkeypatch, raw, at, chunk
):
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    offset = error_offset(path)
    assert raw.startswith(at, offset), raw[offset:]


def read_in_chunks(monkeypatch, path, chunk):
    """``_read_input`` of ``path`` read ``chunk`` bytes at a time."""
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
    return cli._read_input(str(path))


def test_multibyte_character_split_across_chunks(tmp_path, monkeypatch):
    # "日" is three bytes; chunks of 11 and 12 bytes cut it after one and two
    raw = '{"note": "日本", "rows": 1, "cols": 1, "data": [[2]]}'.encode()
    assert raw.index("日".encode()) == 10
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    for chunk in (11, 12):
        doc = read_in_chunks(monkeypatch, path, chunk)
        assert doc["note"] == "日本" and doc["data"].tolist() == [[2.0]]


def test_number_split_across_chunks(tmp_path, monkeypatch):
    # '{"cols": 25' is 11 bytes: the first chunk ends inside 256, which
    # parses as 25 there; 1e5 is cut after "1e", where 1 parses
    text = '{"cols": 256, "note": 1e5, "rows": 1, "data": [%s]}' % json.dumps(list(range(256)))
    path = tmp_path / "m.json"
    path.write_text(text)
    for chunk in (11, text.index("1e5") + 2):
        doc = read_in_chunks(monkeypatch, path, chunk)
        assert (doc["cols"], doc["note"], doc["data"].shape) == (256, 1e5, (1, 256))


def test_row_straddling_chunks(tmp_path, monkeypatch):
    rows = [[1.5, -2.0], [3.25, 4e-3], [5.0, 6.0]]
    text = '{"rows": 3, "cols": 2, "data": %s}' % json.dumps(rows)
    path = tmp_path / "m.json"
    path.write_text(text)
    second = text.index("[3.25")
    for chunk in (second + 3, second + 7):  # the window ends inside the row
        assert read_in_chunks(monkeypatch, path, chunk)["data"].tolist() == rows


def test_error_past_the_first_chunk_names_its_byte(tmp_path, monkeypatch):
    # 200 good rows of two entries each before a bad entry: the error is
    # ~40 chunks of 64 bytes into the file, past text the window has dropped
    text = '{"note": "µ", "rows": 201, "cols": 2, "data": [%s, [1, "x"]]}' % ", ".join(["[1.25, 2.5]"] * 200)
    raw = text.encode()
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", 64)
    offset = error_offset(path)
    assert offset > 40 * 64 and raw.startswith(b'[1, "x"]', offset)


def test_string_longer_than_a_chunk_is_read_whole(tmp_path, monkeypatch):
    # an unterminated string fails at its start, however far back the
    # window's edge cut it: the step is retried until the string ends
    note = "µ\\u00b5 " + "x" * 300 + "\\" + '"' + "y" * 300
    text = '{"note": "%s", "%s": 1, "rows": 1, "cols": 1, "data": [[2]]}' % (note, "k" * 200)
    path = tmp_path / "m.json"
    path.write_text(text)
    want = json.loads(text)
    for chunk in (1, 7, 64):
        doc = read_in_chunks(monkeypatch, path, chunk)
        assert doc["note"] == want["note"] and doc["k" * 200] == 1 and doc["data"].tolist() == [[2.0]]


def test_early_syntax_error_is_raised_without_reading_the_file(tmp_path, traced_memory):
    # an error far from the window's edge cannot have been cut by it: the
    # 4.7-MB file below used to be read to its end (7.3 MB of 600 x 600
    # entries peaked at 14.6 MB) before its row-1 error was raised
    m = np.random.default_rng(8).random((480, 480))
    text = json.dumps({"rows": 480, "cols": 480, "data": m.tolist()})
    second = text.index("], [") + 4
    comma = text.index(", ", second)
    text = text[:comma] + " " + text[comma + 2 :]  # "1 2" in row 1
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert path.stat().st_size >= 4 * 10**6
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(text)
    del text
    with traced_memory() as mem:
        with pytest.raises(InputError) as info:
            load_matrix(str(path))
    assert str(info.value) == f"JSON parse error at byte {whole.value.pos}: Expecting ',' delimiter"
    assert mem.peak < 4 * 2**20, f"peak {mem.peak / 2**20:.1f} MiB"


def test_repeated_data_key_keeps_the_last_in_chunks(tmp_path, monkeypatch):
    text = '{"data": [[9, 9, 9]], "rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]}'
    path = tmp_path / "m.json"
    path.write_text(text)
    for chunk in SMALL_CHUNKS:
        monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
        assert load_matrix(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_extra_data_after_the_object_in_chunks(tmp_path, monkeypatch):
    text = '{"rows": 1, "cols": 1, "data": [[1]]}' + " " * 100 + "\n x"
    path = tmp_path / "bad.json"
    path.write_text(text)
    for chunk in (1, 7, 40, 64):
        monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
        with pytest.raises(InputError, match=r"extra data"):
            load_matrix(str(path))
        assert text.startswith("x", error_offset(path))


def test_small_file_is_not_read_into_a_chunk(tmp_path, traced_memory):
    # a read allocates the size it asks for: a 1-MiB request for a
    # 24-byte file added 1 MB to the peak of every command on a small input
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
    with traced_memory() as mem:
        assert load_matrix(str(path)).shape == (4, 3)
    assert mem.peak - mem.base < 64 * 1024


def test_piped_input_is_read_to_its_end(monkeypatch):
    # a pipe has no size to bound the reads by; it is read in chunks
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", 7)
    text = '{"rows": 1, "cols": 3, "data": [[1, 2, 3]]}'
    read, write = os.pipe()
    os.write(write, text.encode())
    os.close(write)
    try:
        assert load_matrix(f"/dev/fd/{read}").tolist() == [[1.0, 2.0, 3.0]]
    finally:
        os.close(read)
