"""The windowed CSV reader against the whole-file parse it replaced.

The oracle is that parse: the whole file decoded with ``surrogateescape``,
cut by ``str.splitlines``, blank lines skipped and each cell read by
``float``.  ``load_matrix`` must return its matrix bit for bit on every
input it accepts, and name the same byte offset on every input it refuses,
whatever the window size.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpdo_kit import cli
from mpdo_kit.cli import EXIT_USAGE, InputError, load_matrix, main

SRC = Path(__file__).resolve().parent.parent / "src" / "mpdo_kit"


class OracleError(Exception):
    def __init__(self, kind, offset, message):
        super().__init__(message)
        self.kind, self.offset, self.message = kind, offset, message


def oracle_load(raw: bytes) -> np.ndarray:
    """The matrix of headerless CSV bytes, read whole and cut by ``splitlines``."""
    text = raw.decode("utf-8", errors="surrogateescape")

    def byte_offset(pos):
        return len(text[:pos].encode("utf-8", errors="surrogateescape"))

    values = []
    offset = 0
    width = None
    for line in text.splitlines(keepends=True):
        body = line.rstrip("\r\n")
        if body.strip():
            row = []
            col_offset = 0
            for cell in body.split(","):
                try:
                    row.append(float(cell))
                except ValueError:
                    at = byte_offset(offset + col_offset)
                    raise OracleError("cell", at, f"CSV parse error at byte {at}: {cell.strip()!r}") from None
                col_offset += len(cell) + 1
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise OracleError("ragged", byte_offset(offset), "ragged")
            if not np.isfinite(row).all():
                raise OracleError("non-finite", byte_offset(offset), "non-finite")
            values.append(row)
        offset += len(line)
    if not values:
        raise OracleError("empty", None, "empty input file")
    return np.asarray(values, dtype=float)


def assert_loads_as_the_oracle(path, raw):
    """``load_matrix`` of ``path`` (holding ``raw``) gives the oracle's matrix
    bits, or fails where and, for a bad cell or an empty file, as it does."""
    try:
        want = oracle_load(raw)
    except OracleError as exc:
        with pytest.raises(InputError) as info:
            load_matrix(str(path))
        got = str(info.value)
        if exc.kind in ("cell", "empty"):
            assert got == exc.message
        else:
            assert got.startswith("CSV shape does not match" if exc.kind == "ragged" else "non-finite entry in CSV row")
            assert got.endswith(f" at byte {exc.offset}")
        return
    got = load_matrix(str(path))
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


#: Every line break of ``str.splitlines``; ``float`` refuses a cell that
#: ends with one of the last three.
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x85", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e"]
ROW_BREAKS = BREAKS[:-3]
#: Digits other than ASCII that ``float`` reads.
DIGITS = {"fullwidth": "０１２３４５６７８９", "arabic-indic": "٠١٢٣٤٥٦٧٨٩", "devanagari": "०१२३४५६७८९"}


@st.composite
def cells(draw, faults):
    value = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(10**20), 10**20),
        st.sampled_from([0.0, -0.0, 1e-300, 5e-324]),
    ))
    text = repr(value)
    digits = draw(st.sampled_from([None, *DIGITS]))
    if digits:
        text = text.translate(str.maketrans("0123456789", DIGITS[digits]))
    if faults and draw(st.integers(0, 30)) == 0:
        text = draw(st.sampled_from(["x", "", "nan", "-inf", "1e999", "1,2", "\udcff"]))
    pad = st.sampled_from(["", " ", "\t", "\xa0", "\u3000"])
    return draw(pad) + text + draw(pad)


@st.composite
def csv_texts(draw, faults=False):
    """Headerless CSV text over every line break, blank and whitespace lines
    and non-ASCII digits; with ``faults``, now and then a bad cell, a
    ragged row or a break ``float`` refuses after a row."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    blank = st.sampled_from(["", " ", "\t ", "\xa0", "\x1f"])
    parts = []
    for _ in range(rows):
        for _ in range(draw(st.integers(0, 2))):
            parts.append(draw(blank) + draw(st.sampled_from(BREAKS)))
        width = cols + (faults and draw(st.integers(0, 20)) == 0)
        parts.append(",".join(draw(cells(faults)) for _ in range(width)))
        parts.append(draw(st.sampled_from(BREAKS if faults else ROW_BREAKS)))
    if draw(st.booleans()):
        parts.pop()  # no final break
    return "".join(parts)


#: Window sizes that cut lines, breaks, ``\r\n`` and characters anywhere.
CHUNKS = [1, 2, 3, 8, 2**20]


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_csv_loads_as_the_whole_file_parse(tmp_path, monkeypatch, chunk, text):
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
    raw = text.encode("utf-8")
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    oracle_load(raw)  # every drawn text is valid
    assert_loads_as_the_oracle(path, raw)


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(faults=True))
def test_faulty_csv_fails_where_the_whole_file_parse_fails(tmp_path, monkeypatch, chunk, text):
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
    raw = text.encode("utf-8", errors="surrogateescape")
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    assert_loads_as_the_oracle(path, raw)


def test_line_pattern_cuts_where_splitlines_cuts():
    # every code point, surrogates included, between two cells of a line
    text = "".join(f"1{chr(c)}" for c in range(0x110000)) + "\r\n\r\r\n"
    ends, pos = [], 0
    while pos < len(text):
        pos = cli._CSV_LINE.match(text, pos).end()
        ends.append(pos)
    lines = text.splitlines(keepends=True)
    assert ends == np.cumsum([len(line) for line in lines]).tolist()


ERRORS = [
    ("１,2\n3,oops\n".encode(), b"oops"),
    ("１,2\n3\n".encode(), b"3\n"),
    ("１,2\n3,inf\n".encode(), b"3,inf"),
    ("1,2\n１,".encode() + b"\xff\n", b"\xff"),
    ("1,2\r\n\r\n \u2028 3, 4\r\n5,x".encode(), b"x"),
    ("1,2\r\n\r\n \u2028 3, 4\r\n5,6,7".encode(), b"5,6,7"),
    ("１,2\x1c3,4\n".encode(), "2\x1c".encode()),
    (("1.25,2.5\n" * 40 + "1,nan\n").encode(), b"1,nan"),
    ("1,2\n3,4\n \n\v1e999,5\n".encode(), b"1e999,5"),
]
ERROR_IDS = ["bad-cell", "ragged", "non-finite", "not-utf8", "crlf-bad-cell", "crlf-ragged", "x1c-break",
             "late-non-finite", "overflow-after-blank"]


def error_offset(path) -> int:
    with pytest.raises(InputError, match=r"byte \d+") as info:
        load_matrix(str(path))
    return int(re.search(r"byte (\d+)", str(info.value)).group(1))


@pytest.mark.parametrize("raw, at", ERRORS, ids=ERROR_IDS)
def test_csv_error_offsets_hold_at_every_window_edge(tmp_path, monkeypatch, raw, at):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(OracleError) as info:
        oracle_load(raw)
    assert raw.startswith(at, info.value.offset)
    for chunk in range(1, len(raw) + 2):
        monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
        assert error_offset(path) == info.value.offset, chunk
        assert_loads_as_the_oracle(path, raw)


@pytest.mark.parametrize("text", ["", "\n", " \r\n\t\v", "\ufeff", "\ufeff\n "], ids=repr)
def test_csv_without_a_row_is_an_empty_input_file(tmp_path, capsys, text):
    path = tmp_path / "empty.csv"
    path.write_bytes(text.encode())
    assert main(["factorize", str(path), "--kind", "minimal"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: empty input file\n"


def test_the_same_matrix_loads_bit_identically_from_csv_and_json(tmp_path):
    rng = np.random.default_rng(11)
    m = rng.uniform(0, 1, (7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    m[0, 0], m[1, 1], m[2, 2] = -0.0, 5e-324, 1.7976931348623157e308
    csv = tmp_path / "m.csv"
    csv.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"rows": 7, "cols": 5, "data": m.tolist()}))
    got_csv, got_json = load_matrix(str(csv)), load_matrix(str(doc))
    assert got_csv.dtype == got_json.dtype == np.float64
    assert got_csv.tobytes() == got_json.tobytes() == m.tobytes()


# ---------------------------------------------------------------------------
# a UTF-8 byte-order mark is skipped, and offsets still count its 3 bytes

BOM = "\ufeff".encode()
DOCS = {
    "csv": b" 1,2.5\r\n3,4\n",
    "json": b'{"rows": 2, "cols": 2, "data": [[1, 2.5], [3, 4]]}',
    "json-spaced": b'\n {"rows": 2, "cols": 2, "data": [[1, 2.5], [3, 4]]}',
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 2**20])
@pytest.mark.parametrize("raw", DOCS.values(), ids=DOCS.keys())
def test_byte_order_mark_is_skipped(tmp_path, monkeypatch, raw, chunk):
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(raw)
    marked.write_bytes(BOM + raw)
    got = load_matrix(str(marked))
    assert got.tobytes() == load_matrix(str(plain)).tobytes() == np.array([[1, 2.5], [3, 4]]).tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 2**20])
@pytest.mark.parametrize(
    "raw, at",
    [(b"x,1\n", b"x"), (b"1,2\n3,x\n", b"x"), (b"1,2\n3\n", b"3"), (b"1,2\n3,inf\n", b"3,inf"),
     (b'{"rows": 1, "cols": 1, "data": [["x"]]}', b'["x"]')],
    ids=["first-cell", "bad-cell", "ragged", "non-finite", "json-bad-entry"],
)
def test_error_after_a_byte_order_mark_counts_its_bytes(tmp_path, monkeypatch, raw, at, chunk):
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", chunk)
    path = tmp_path / "bad"
    path.write_bytes(BOM + raw)
    offset = error_offset(path)
    assert (BOM + raw).startswith(at, offset)
    path.write_bytes(raw)
    assert error_offset(path) == offset - len(BOM)


def test_csv_mark_is_refused_after_the_start(tmp_path):
    # only a leading mark is skipped: elsewhere it is a cell's text
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\n" + BOM + b"3,4\n")
    with pytest.raises(InputError, match=r"^CSV parse error at byte 4: '\\ufeff3'$"):
        load_matrix(str(path))


# ---------------------------------------------------------------------------
# memory: the window holds about one chunk of text, not the file


def test_csv_read_peaks_below_four_matrices(tmp_path, traced_memory):
    # a 400 x 400 file of ~3 MB read in 1-MiB chunks: the rows and their
    # stacked array beside one chunk (reading the file whole peaked at 9.6x)
    m = np.random.default_rng(5).uniform(0, 1, (400, 400))
    path = tmp_path / "big.csv"
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")
    assert path.stat().st_size > 2 * cli.READ_CHUNK_BYTES
    with traced_memory() as mem:
        got = load_matrix(str(path))
    assert got.tobytes() == m.tobytes()
    assert mem.peak < 4 * m.nbytes, f"peak {mem.peak / m.nbytes:.2f}x the matrix"


# ---------------------------------------------------------------------------
# tooling guard: one open of an input file, one read call

#: Calls that read a file, and the one function allowed to make them.
READS, READER = {"read", "read_text", "read_bytes", "readline", "readlines"}, "_JsonWindow._refill"
OPENS, OPENER = {"open"}, "_read_input"


def file_calls(source: str):
    """``(line, enclosing class and function path, callee)`` of each open or
    read call outside the one function allowed to make it."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                where = ".".join(path)
                if (name in READS and where != READER) or (name in OPENS and where != OPENER):
                    found.append((child.lineno, where or "<module>", name))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_cli_opens_and_reads_an_input_file_in_one_place_each():
    assert file_calls((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_guard_sees_the_allowed_calls():
    # renamed, the two allowed functions are flagged
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    moved = source.replace("def _read_input(", "def _moved(").replace("def _refill(", "def _moved(")
    assert {name for _, _, name in file_calls(moved)} == {"open", "read"}


def test_guard_flags_whole_file_reads():
    source = (
        "class _JsonWindow:\n"
        "    def _refill(self):\n"
        "        return self.fh.read(8)\n"
        "    def rest(self):\n"
        "        return self.fh.read()\n"
        "def _read_input(path):\n"
        "    with open(path) as fh:\n"
        "        return fh\n"
        "def _csv_matrix(path):\n"
        "    return Path(path).read_text()\n"
        "def _refill(fh):\n"
        "    return fh.readlines() + [open(fh).read()]\n"
        "io.open('x')\n"
    )
    assert file_calls(source) == [
        (5, "_JsonWindow.rest", "read"),
        (10, "_csv_matrix", "read_text"),
        (12, "_refill", "readlines"),
        (12, "_refill", "read"),
        (12, "_refill", "open"),
        (13, "<module>", "open"),
    ]
