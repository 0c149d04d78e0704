"""Batch front end: ingestion, analysis, factorization, conversion, experiments.

Matrices arrive as JSON ``{"rows": p, "cols": q, "data": [[...]]}`` with
complex entries encoded as ``[re, im]`` pairs, or as headerless CSV for
real nonnegative matrices.  Reports are emitted as JSON documents under
schema ``mpdo-kit/1``; identical invocations with the same ``--seed``
produce byte-identical reports apart from the ``timestamp`` field.

Exit codes: 0 success, 1 search exhausted without a certificate, 2 usage or
input error, 3 structured mathematical rejection (a violated necessary
condition, not a failed search).
"""

from __future__ import annotations

import argparse
import codecs
import datetime
import json
import os
import re
import stat
import sys
import time
from math import ceil, isqrt, sqrt

import numpy as np

from . import __version__
from .certificates import KINDS, FactorCertificate, NecessaryConditionError, as_nonneg
from .correspondence import (
    DiagBipartite,
    _matrix_certificate,
    canonical_kind,
    decomposition_to_factorization,
    diag_extract,
    factorization_to_decomposition,
    verify_correspondence,
)
from .decompositions import (
    clipped_spectrum,
    local_purification_spectral,
    make_translation_invariant,
    mixed_w_generator,
    mpo_train_form,
    operator_schmidt_rank,
    periodicity_lower_bound,
    q_sqrt_rank,
    schmidt_rank_cap,
    w_state_generators,
)
from .nonneg_factorizations import (
    DEFAULT_SIGN_BUDGET,
    SEARCH_RESTARTS,
    cp_factorization_search,
    nonneg_factorization_search,
    psd_factorization_search,
    slack_matrix_tgon,
)
from .tensor_core import (
    DEFAULT_RANK_TOL,
    PsdOperator,
    SignBudgetError,
    SiteSpec,
    UsageError,
    contract_cyclic,
    contract_train,
    cyclic_shift_defect,
    is_diagonal,
    nonzero_mask,
    numerical_rank,
    relative_residual,
)

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3


class InputError(UsageError):
    """Bad input file; message carries the byte offset where parsing failed."""


def _byte_offset(text: str, pos: int) -> int:
    """The offset of ``text[pos]`` in the input file, for an error message."""
    return len(text[:pos].encode("utf-8", errors="surrogateescape"))


# ---------------------------------------------------------------------------
# ingestion and JSON helpers


#: Bytes read from an input file at a time.  A JSON or CSV document is
#: parsed from a window of its text (:class:`_JsonWindow`), so neither its
#: bytes nor its text is ever held whole.
READ_CHUNK_BYTES = 2**20

_START_SPACE = re.compile(r"\s*")
_CSV_BREAKS = r"\n\v\f\r\x1c-\x1e\x85\u2028\u2029"
#: A CSV line and its break, as ``str.splitlines`` cuts them: ``\r\n`` is
#: one break.
_CSV_LINE = re.compile(rf"[^{_CSV_BREAKS}]*(?:\r\n?|[{_CSV_BREAKS}])?")
_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_JSON_DECODER = json.JSONDecoder()
#: Characters before the window's edge within which a failed step may have
#: been cut by it: a cut number, literal (``-Infinity``) or ``\uXXXX``
#: escape fails at most this far back.
_CUT_REACH = 16


class _ParseError(Exception):
    """A parse step that failed at ``pos`` of the window's text; the message
    reads ``f"{before} at byte N{after}"``."""

    def __init__(self, pos: int, before: str, after: str = ""):
        super().__init__(before)
        self.pos, self.before, self.after = pos, before, after


class _JsonWindow:
    """The text of an open input file, decoded a chunk at a time.

    ``text`` is the window: the file's text from byte ``base`` on, as far
    as it has been read, and ``pos`` the parse cursor in it.  The bytes go
    through an incremental UTF-8 decoder with ``surrogateescape``, so the
    text is that of a whole-file decode and every prefix re-encodes to its
    bytes.  Parsing is done in steps (:meth:`step`).
    """

    def __init__(self, fh):
        self.fh, self.text, self.pos, self.base, self.eof = fh, "", 0, 0, False
        self.decoder = codecs.getincrementaldecoder("utf-8")(errors="surrogateescape")
        # bytes left in a regular file (None for a pipe): a read allocates
        # the size it asks for, so a small file is not read into a chunk
        info = os.fstat(fh.fileno())
        self.left = info.st_size if stat.S_ISREG(info.st_mode) else None
        self._refill()

    def _refill(self) -> None:
        """Drop the text before the cursor and read at least as many bytes as
        are kept, and at least ``READ_CHUNK_BYTES``, so that a value longer
        than a chunk is read in a number of steps logarithmic in its size;
        from a regular file, at most one byte more than is left, which
        tells its end."""
        text, pos = self.text, self.pos
        self.base += pos if text.isascii() else _byte_offset(text, pos)
        self.text = text = text[pos:]  # the old window is not held while reading
        size = max(READ_CHUNK_BYTES, len(text))
        if self.left is not None:
            size = min(size, max(self.left, 0) + 1)
        raw = self.fh.read(size)
        self.eof = len(raw) < size
        if self.left is not None:
            self.left -= len(raw)
        more = self.decoder.decode(raw, final=self.eof)
        del raw
        self.text, self.pos = text + more, 0

    def step(self, parse):
        """The value of ``parse(text, pos) -> (value, end)`` at the cursor,
        which moves to ``end``.

        A step that ends at the edge of the window may have been cut short
        by it, and so may one that raises :class:`_ParseError` or
        ``json.JSONDecodeError`` within ``_CUT_REACH`` characters of the
        edge or on an unterminated string: before end of file these are
        retried on a longer window.  Any other failure, and every failure at
        end of file, is an ``InputError`` naming its byte offset in the file,
        so a syntax error early in a large file is raised without reading
        the rest of it.
        """
        while True:
            try:
                value, end = parse(self.text, self.pos)
            except json.JSONDecodeError as exc:
                failure = _ParseError(exc.pos, "JSON parse error", f": {exc.msg}")
                cut = exc.msg == "Unterminated string starting at"
            except _ParseError as exc:
                failure, cut = exc, False
            else:
                if end < len(self.text) or self.eof:
                    self.pos = end
                    return value
                failure = None
            if failure is not None and (self.eof or not (cut or len(self.text) - failure.pos <= _CUT_REACH)):
                raise self.error(failure) from None
            self._refill()

    def byte_offset(self, pos: int) -> int:
        """The offset in the file of ``text[pos]``."""
        return self.base + _byte_offset(self.text, pos)

    def error(self, exc: _ParseError) -> InputError:
        return InputError(f"{exc.before} at byte {self.byte_offset(exc.pos)}{exc.after}")


def _read_input(path: str):
    """Parse an input file once, a window at a time.

    Returns the members of a JSON object document, its ``"data"`` already
    an array, or the matrix of headerless CSV.  A leading UTF-8 byte-order
    mark is skipped in both; byte offsets still count it.
    """
    with open(path, "rb") as fh:
        window = _JsonWindow(fh)
        # the start test skips \s, wider than JSON's whitespace and part of
        # CSV's first line: parsing resumes just past the mark
        is_json, window.pos = window.step(_json_start)
        if is_json:
            return _json_object(window)
        matrix = decode_matrix(_CsvRows(window), "CSV")
        if not matrix.size:
            raise InputError("empty input file")
        return matrix


def _json_start(text: str, pos: int):
    """Whether the document is JSON, a ``{`` past a byte-order mark and
    leading whitespace, with the offset just past the mark; and the offset
    of the ``{``."""
    start = pos + text.startswith("\ufeff", pos)
    end = _START_SPACE.match(text, start).end()
    return (text.startswith("{", end), start), end


def _json_value(text: str, pos: int):
    """The JSON value that starts at ``text[pos]`` past whitespace, and the
    offset just past it."""
    return _JSON_DECODER.raw_decode(text, _JSON_SPACE.match(text, pos).end())


def _json_token(text: str, pos: int, chars: str) -> tuple[str, int]:
    """The first character at or after ``pos`` past whitespace, which must be
    one of ``chars``, and the offset just past it."""
    pos = _JSON_SPACE.match(text, pos).end()
    char = text[pos : pos + 1]
    if not char or char not in chars:
        expected = " or ".join(repr(c) for c in chars)
        raise _ParseError(pos, "JSON parse error", f": expecting {expected}")
    return char, pos + 1


def _json_space(text: str, pos: int):
    """The parse step that moves the cursor past JSON whitespace."""
    return None, _JSON_SPACE.match(text, pos).end()


def _tokens(chars: str):
    """The parse step of :func:`_json_token` for ``chars``."""
    return lambda text, pos: _json_token(text, pos, chars)


def _member_value(text: str, pos: int):
    """A member's value and the ``,`` or ``}`` after it, as one step: a
    number cut short at the window's edge (``1e`` of ``1e5``) parses, and
    only the token after it shows that it was cut."""
    value, pos = _json_value(text, pos)
    char, pos = _json_token(text, pos, ",}")
    return (value, char), pos


def _row_start(text: str, pos: int):
    """The offset of the value at or after ``pos`` past whitespace, the
    value, and the offset just past it."""
    start = _JSON_SPACE.match(text, pos).end()
    row, end = _JSON_DECODER.raw_decode(text, start)
    return (start, row), end


class _Rows:
    """The rows of a matrix in an input file, read one at a time from a
    window.

    ``offset`` is the window offset of the row last read, valid while it is
    being decoded: no step is taken between a row and its decoding.
    """

    def __init__(self, window: _JsonWindow):
        self.window, self.offset = window, window.pos

    def byte_offset(self) -> int:
        """The offset in the file of the row last read."""
        return self.window.byte_offset(self.offset)


class _JsonRows(_Rows):
    """The rows of the JSON array at the cursor of a window; once every row
    has been read the cursor is just past the array."""

    def __init__(self, window: _JsonWindow):
        window.step(_json_space)
        super().__init__(window)
        if not window.text.startswith("[", window.pos):
            raise window.error(_ParseError(window.pos, "data must be a list of rows,"))

    def __iter__(self):
        window = self.window
        window.pos += 1
        window.step(_json_space)
        if window.text.startswith("]", window.pos):
            window.pos += 1
            return
        char = ","
        while char == ",":
            self.offset, row = window.step(_row_start)
            yield row
            char = window.step(_tokens(",]"))


def _csv_line(text: str, pos: int):
    r"""``(pos, line)``, the line at ``pos`` with its break as
    ``str.splitlines`` cuts it, and the offset just past it.  A line with no
    break in the window, or a ``\r`` that may be the first half of
    ``\r\n``, ends at the window's edge, so :meth:`_JsonWindow.step`
    retries it on a longer window."""
    end = _CSV_LINE.match(text, pos).end()
    return (pos, text[pos:end]), end


def _bad_cell(pos: int, cells: list[str]) -> _ParseError:
    """The error of the first of ``cells``, the cells of a line at ``pos``,
    that ``float`` refuses."""
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return _ParseError(pos, "CSV parse error", f": {cell.strip()!r}")
        pos += len(cell) + 1


class _CsvRows(_Rows):
    """The rows of headerless CSV from the cursor of a window to the end of
    its file, as lists of floats; blank lines are skipped."""

    def __iter__(self):
        window = self.window
        while window.pos < len(window.text) or not window.eof:
            self.offset, line = window.step(_csv_line)
            # the break stays on the line: isspace and float read it as
            # space, but float refuses \x1c-\x1e, so a number before one
            # is a bad cell
            if not line or line.isspace():
                continue
            cells = line.split(",")
            try:
                row = list(map(float, cells))
            except ValueError:
                raise window.error(_bad_cell(self.offset, cells)) from None
            yield row


def _json_object(window: _JsonWindow) -> dict:
    """The members of the JSON object that is all of the window's file.

    Each member is decoded whole except ``"data"``, whose rows
    :func:`decode_matrix` decodes one at a time into an array, so that at
    most one row of Python objects is alive at any time.  As with
    ``json.loads``, a repeated key keeps its last value.
    """
    doc = {}
    window.step(_tokens("{"))
    char = window.step(_tokens('"}'))
    while char == '"':
        window.pos -= 1
        key = window.step(_json_value)
        window.step(_tokens(":"))
        if key == "data":
            doc[key] = decode_matrix(_JsonRows(window), key)
            char = window.step(_tokens(",}"))
        else:
            doc[key], char = window.step(_member_value)
        if char == ",":
            char = window.step(_tokens('"'))
    window.step(_json_space)
    if window.pos < len(window.text):
        raise window.error(_ParseError(window.pos, "JSON parse error", ": extra data"))
    return doc


def _field(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"{where} is missing the {key!r} field")
    return doc[key]


def _count(doc: dict, key: str, where: str) -> int:
    val = _field(doc, key, where)
    if not isinstance(val, int) or isinstance(val, bool) or val < 0:
        raise InputError(f"{where} field {key!r} must be a nonnegative integer, got {val!r}")
    return val


def _real_valued(arr: np.ndarray) -> np.ndarray:
    """``arr``, as its real part when it is complex with imaginary part 0."""
    return arr.real if np.iscomplexobj(arr) and not arr.imag.any() else arr


def _json_matrix(doc: dict) -> np.ndarray:
    """The matrix of a JSON matrix document read by :func:`_read_input`."""
    shape = _count(doc, "rows", "JSON matrix"), _count(doc, "cols", "JSON matrix")
    if 0 in shape:
        raise InputError(f"JSON matrix is empty: rows={shape[0]} cols={shape[1]}")
    out = _field(doc, "data", "JSON matrix")
    if out.shape != shape:
        raise InputError(f"data shape does not match rows={shape[0]} cols={shape[1]}")
    return _real_valued(out)


def _bounded(matrix: np.ndarray, what: str) -> np.ndarray:
    """``matrix``, refused when its Frobenius norm overflows, as its SVD would."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(matrix)
        if not np.isfinite(norm):  # the sum of squares overflows before the norm does
            scale = np.abs(matrix).max()
            norm = scale * np.linalg.norm(matrix / scale)
    if not np.isfinite(norm):
        raise InputError(f"{what} is too large: its Frobenius norm overflows")
    return matrix


def load_matrix(path: str) -> np.ndarray:
    """Read a dense matrix from JSON or headerless CSV."""
    parsed = _read_input(path)
    return _json_matrix(parsed) if isinstance(parsed, dict) else parsed


def decode_matrix(rows, field: str, shape=None) -> np.ndarray:
    """The array of a JSON matrix whose rows hold numbers (real) or [re, im]
    pairs (complex).

    ``rows`` is a parsed list of rows, or the rows of an input file as
    :class:`_JsonRows` or :class:`_CsvRows` reads them.  Each row converts
    in one ``np.array`` call; a row that mixes numbers and pairs goes entry
    by entry.  The result is complex when any row is.  A row that is not a list, a bad or
    non-finite entry, or rows that are ragged or not of ``shape`` (when
    given) raise ``InputError`` naming ``field``, the row and, for rows
    read from a file, the row's byte offset.
    """
    stream = rows if isinstance(rows, _Rows) else None
    if stream is None and not isinstance(rows, list):
        raise InputError(f"{field} must be a list of rows")

    def where(i):
        return f"{field} row {i}" + ("" if stream is None else f" at byte {stream.byte_offset()}")

    cols = None if shape is None else shape[1]
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"{field} must be a list of rows, but {where(i)} is not a list")
        if cols is None:
            cols = len(row)
        if len(row) != cols:
            raise InputError(f"{field} shape does not match cols={cols} at {where(i)}")
        try:
            arr = np.array(row)
        except ValueError:  # inhomogeneous nesting: numbers mixed with pairs
            arr = None
        if arr is not None and arr.dtype.kind in "biuf" and arr.shape in ((cols,), (cols, 2)):
            arr = arr.astype(float, copy=False)
            # C-ordered (re, im) float pairs are the complex128 layout
            arr = arr if arr.ndim == 1 else arr.view(complex)[:, 0]
        else:
            arr = np.empty(cols, dtype=complex)
            for j, entry in enumerate(row):
                pair = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0]
                if not all(isinstance(x, (int, float)) for x in pair):
                    raise InputError(f"bad matrix entry in {where(i)}: {entry!r}")
                try:
                    arr[j] = complex(*pair)
                except OverflowError:  # an integer beyond the float range
                    raise InputError(f"non-finite entry in {where(i)}") from None
        if not np.isfinite(arr).all():
            raise InputError(f"non-finite entry in {where(i)}")
        out.append(arr)
    if shape is not None and len(out) != shape[0]:
        raise InputError(f"{field} shape does not match rows={shape[0]} cols={cols}")
    return np.stack(out) if out else np.zeros((0, cols or 0))


def encode_matrix(mat) -> list:
    """Nested lists of an array: numbers when it is real, [re, im] pairs when
    it is complex, so that :func:`decode_matrix` restores the dtype."""
    mat = np.asarray(mat)
    if np.iscomplexobj(mat):
        mat = np.stack((mat.real, mat.imag), axis=-1)
    return mat.tolist()


#: Payload matrices of each kind, field: (shape in p x q M and inner dimension r,
#: dtype of a real or empty one); "E" and "F" hold one r x r matrix per row and
#: column of M.  Empty matrices encode as [] and take their shape from here.
_PAYLOAD_FIELDS = {
    "minimal": {"left": ("pr", float), "right": ("rq", float)},
    "nonnegative": {"left": ("pr", float), "right": ("rq", float)},
    "psd": {"E": ("prr", float), "F": ("qrr", float)},
    "symmetric": {"factor": ("pr", complex)},
    "cp": {"factor": ("pr", float)},
    "cpsdt": {"E": ("prr", complex), "root": ("pq", float)},
    "hadamard-root": {"root": ("pq", float), "signs": ("pq", int)},
}


def certificate_doc(matrix, cert: FactorCertificate) -> dict:
    return {
        "kind": cert.kind,
        "inner_dim": cert.inner_dim,
        "residual": cert.residual,
        "payload": {key: encode_matrix(val) for key, val in cert.payload.items()},
        "matrix": encode_matrix(matrix),
    }


def certificate_from_doc(doc: dict) -> tuple[np.ndarray, FactorCertificate]:
    """The matrix and certificate of a ``factorize --json`` payload.

    A missing field, an unknown kind, a non-finite ``residual``, a complex
    ``matrix`` or one whose norm overflows, or a matrix that does not fit
    the kind, the inner dimension and the matrix raises ``InputError``
    naming the field.
    """
    where = "certificate document"
    kind = _field(doc, "kind", where)
    if kind not in KINDS:
        raise InputError(f"{where} field 'kind' is not a certificate kind: {kind!r}")
    r = _count(doc, "inner_dim", where)
    residual = _field(doc, "residual", where)
    if isinstance(residual, bool) or not isinstance(residual, (int, float)):
        raise InputError(f"{where} field 'residual' must be a number, got {residual!r}")
    if not abs(residual) <= sys.float_info.max:
        raise InputError(f"{where} field 'residual' must be finite, got {residual!r}")
    payload = _field(doc, "payload", where)
    matrix = _real_valued(decode_matrix(_field(doc, "matrix", where), "matrix"))
    if np.iscomplexobj(matrix):
        raise InputError(f"{where} field 'matrix' must be real")
    _bounded(matrix, f"{where} field 'matrix'")
    dims = dict(zip("pqr", (*matrix.shape, r)))

    def decode(val, field, shape, dtype):
        if len(shape) == 3:
            if not isinstance(val, list) or len(val) != shape[0]:
                raise InputError(f"payload field {field!r} must be a list of {shape[0]} matrices")
            return [decode(v, f"{field}[{i}]", shape[1:], dtype) for i, v in enumerate(val)]
        arr = decode_matrix(val, f"payload field {field!r}", shape)
        return arr if np.iscomplexobj(arr) else arr.astype(dtype, copy=False)

    decoded = {
        key: decode(_field(payload, key, f"{kind} payload"), key, tuple(dims[c] for c in spec), dtype)
        for key, (spec, dtype) in _PAYLOAD_FIELDS[kind].items()
    }
    return matrix, FactorCertificate(kind, r, decoded, float(residual))


def _json_default(obj):
    """numpy values for ``json.dumps``: arrays as lists, complex numbers as
    [re, im] pairs, or as their real part when the imaginary part is 0."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return obj.real if obj.imag == 0.0 else [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class Report:
    """Accumulates named entries and renders the versioned JSON document."""

    def __init__(self, command: str, seed: int | None = None):
        self.command = command
        self.seed = seed
        self.entries = []
        self.input: dict = {}
        self.t0 = time.perf_counter()

    def add(self, name: str, **fields):
        entry = {"name": name}
        entry.update(fields)
        self.entries.append(entry)

    def document(self) -> dict:
        doc = {
            "schema": "mpdo-kit/1",
            "version": __version__,
            "command": self.command,
            "input": self.input,
            "entries": self.entries,
            "timestamp": {
                "at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runtime_s": round(time.perf_counter() - self.t0, 6),
            },
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    def emit(self, as_json: bool) -> None:
        if as_json:
            print(json.dumps(self.document(), sort_keys=True, indent=2, default=_json_default))
            return
        for entry in self.entries:
            parts = [f"{entry['name']}:"]
            for key, val in entry.items():
                if key == "name":
                    continue
                if isinstance(val, float):
                    parts.append(f"{key}={val:.3e}")
                elif key == "payload":
                    parts.append("payload=<inline in --json>")
                else:
                    parts.append(f"{key}={val}")
            print(" ".join(parts))


def _ints(spec: str) -> list[int]:
    """argparse type: comma-separated integers, e.g. 2,2,3."""
    return [int(x) for x in spec.split(",")]


def _nonneg_int(spec: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(spec)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _int_range(spec: str) -> list[int]:
    """argparse type: an inclusive range lo..hi with hi >= lo, or comma-separated integers."""
    lo, dots, hi = spec.partition("..")
    if dots and int(hi) < int(lo):
        raise argparse.ArgumentTypeError(f"expected a range lo..hi with hi >= lo, got {spec}")
    return list(range(int(lo), int(hi) + 1)) if dots else _ints(spec)


def _site_spec(dims: list[int] | None, side: int) -> SiteSpec:
    """The sites of ``--sites``, or two equal sites inferred from the matrix side."""
    if dims:
        return SiteSpec(tuple(dims))
    root = isqrt(side)
    if root * root == side:
        return SiteSpec((root, root))
    raise InputError(
        f"cannot infer site dimensions for side {side}; pass --sites d1,d2,..."
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    matrix = _bounded(load_matrix(args.path), "input matrix")
    if matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"analyze needs a square operator, got {matrix.shape}")
    sites = _site_spec(args.sites, matrix.shape[0])
    op = PsdOperator(sites, matrix)
    del matrix  # op holds its symmetrized copy
    report = Report("analyze", args.seed)
    report.input = {"path": args.path, "sites": list(sites.dims)}

    train, osr = mpo_train_form(op, rel_tol=args.tol)
    # a train whose every cut was screened is rho between identity cores
    residual = 0.0
    if not all(train.screened):
        residual = relative_residual(contract_train(train), op.data, overwrite_approx=True)
    report.add("osr", value=osr, certificate="train", residual=residual)
    del train  # at full rank its cores hold as many entries as rho

    # the enumeration is exact only in a diagonal eigenbasis
    diagonal = is_diagonal(op)
    # one eigendecomposition for q_sqrt_rank and the purification; at full
    # rank the eigenvectors are as large as rho, so the purification is
    # handed the only reference and frees them before its sweep
    spectrum = [clipped_spectrum(op, args.tol)]
    try:
        q_rank, _ = q_sqrt_rank(op, rel_tol=args.tol, spectrum=spectrum[0], diagonal=diagonal, osr=osr)
    except SignBudgetError:  # its walk is over budget: no entry
        q_rank = None
    puri = local_purification_spectral(op, rel_tol=args.tol, spectrum=spectrum.pop())
    # diagonal bipartite: the nonnegative scan bounds sep, and so puri
    sep = None
    if diagonal and sites.n == 2:
        sep = _matrix_certificate("nonnegative", diag_extract(op), rel_tol=args.tol, restarts=args.restarts, seed=args.seed)
    puri_upper = puri.osr_L
    if q_rank:
        puri_upper = min(puri_upper, q_rank)
    if sep is not None:
        puri_upper = min(puri_upper, sep.inner_dim)
    puri_lower = max(ceil(sqrt(osr)), 1) if osr else 0
    report.add(
        "puri_rank",
        interval=[puri_lower, max(puri_upper, puri_lower)] if osr else [0, 0],
        certificate="spectral purification",
        residual=puri.residual,
    )
    if q_rank is not None:
        report.add(
            "q_sqrt_rank",
            value=q_rank,
            certificate="sign enumeration" if diagonal else "sign enumeration (upper bound)",
            exact=diagonal,
        )

    report.add("diagonal", value=diagonal)
    if sep is not None:
        report.add(
            "sep_rank",
            interval=[osr, sep.inner_dim],
            certificate="nonnegative factorization scan",
            residual=sep.residual,
        )

    cap = schmidt_rank_cap(sites.dims)
    report.add("dimension_bound_osr", value=bool(osr <= cap), bound=cap)
    report.add("dimension_bound_puri", value=bool(puri_upper <= cap), bound=cap)
    if sep is not None:
        sep_cap = sites.total_dim**2
        report.add("dimension_bound_sep", value=bool(sep.inner_dim <= sep_cap), bound=sep_cap)
    report.add("purification_square_bound", value=bool(osr <= max(puri_upper, 1) ** 2))
    report.emit(args.json)
    return EXIT_OK


def cmd_factorize(args) -> int:
    matrix = _bounded(load_matrix(args.path), "input matrix")
    if np.iscomplexobj(matrix):
        raise InputError("factorize expects a real nonnegative matrix")
    kind = canonical_kind(args.kind)
    m = as_nonneg(matrix)
    report = Report("factorize", args.seed)
    report.input = {"path": args.path, "kind": kind, "shape": list(m.shape)}

    # built per call, so that a rebinding of these module names is seen
    searches = {
        "nonnegative": nonneg_factorization_search,
        "psd": psd_factorization_search,
        "cp": cp_factorization_search,
    }
    if kind in searches:
        # only the searches read r, so only they pay for the rank's SVD
        r = args.r if args.r is not None else max(numerical_rank(m, args.tol), 1)
        cert = searches[kind](m, r, args.restarts, seed=args.seed)
        if cert is None:
            report.add("certificate", found=False, kind=kind, r=r)
            report.emit(args.json)
            return EXIT_NOT_FOUND
    else:
        cert = _matrix_certificate(kind, m, rel_tol=args.tol, sign_budget=args.budget)
    doc = certificate_doc(m, cert)
    report.add(
        "certificate",
        found=True,
        kind=kind,
        inner_dim=cert.inner_dim,
        residual=cert.residual,
        payload=doc if args.json else None,
    )
    report.emit(args.json)
    return EXIT_OK


def cmd_convert(args) -> int:
    kind = canonical_kind(args.kind)
    parsed = _read_input(args.path)
    report = Report("convert", args.seed)
    report.input = {"path": args.path, "kind": kind, "direction": args.direction}

    # a certificate document makes a round trip; a matrix is certified first
    if isinstance(parsed, dict) and "payload" in parsed:
        m, cert = certificate_from_doc(parsed)
        back_entry = "round_trip"
    else:
        matrix = _bounded(_json_matrix(parsed) if isinstance(parsed, dict) else parsed, "input matrix")
        if args.sites:
            # operator input: must be diagonal bipartite
            sites = _site_spec(args.sites, matrix.shape[0])
            if sites.n != 2:
                raise UsageError("conversion works on bipartite operators")
            m = diag_extract(PsdOperator(sites, matrix))
        else:
            if np.iscomplexobj(matrix):
                raise InputError("matrix input must be real; pass --sites for operator input")
            m = as_nonneg(matrix)

        options = dict(sign_budget=args.budget, restarts=args.restarts, seed=args.seed)
        if args.direction == "both":
            entry = verify_correspondence(kind, m, rel_tol=args.tol, **options)
            report.add("correspondence", **{k: v for k, v in entry.items() if k != "kind"})
            report.emit(args.json)
            return EXIT_OK

        cert = _matrix_certificate(kind, m, rel_tol=args.tol, **options)
        if cert is None:
            report.add("state_certificate", found=False)
            report.emit(args.json)
            return EXIT_NOT_FOUND
        back_entry = "matrix_certificate" if args.direction == "to-matrix" else None

    dec = factorization_to_decomposition(kind, cert, DiagBipartite(m), args.tol)
    report.add(
        "state_certificate",
        inner_dim=dec.inner_dim,
        residual=dec.residual,
        site_symmetric=dec.site_symmetric,
    )
    if back_entry:
        back = decomposition_to_factorization(kind, dec, m.shape, args.tol)
        named = {"kind": back.kind} if back_entry == "matrix_certificate" else {}
        report.add(back_entry, **named, inner_dim=back.inner_dim, residual=back.residual)
    report.emit(args.json)
    return EXIT_OK


def cmd_experiment(args) -> int:
    report = Report("experiment", args.seed)
    report.input = {"name": args.name}
    rng = np.random.default_rng(args.seed)

    if args.name == "wstate":
        for n in range(3, 11) if args.n is None else args.n:
            fam = w_state_generators(n)
            open_res = float(np.linalg.norm(contract_train(fam.open_train).ravel() - fam.vector))
            cyc_res = float(np.linalg.norm(contract_cyclic(fam.cyclic_site, n).ravel() - fam.vector))
            holds, bound = periodicity_lower_bound(fam.cyclic_site, n)
            report.add(
                f"n={n}",
                open_residual=open_res,
                cyclic_residual=cyc_res,
                cyclic_bond=fam.cyclic_site.bond_dim,
                periodicity_holds=holds,
                ti_bond_lower_bound=bound,
            )
    elif args.name == "tgon":
        for t in range(3, 51) if args.t is None else args.t:
            slack = slack_matrix_tgon(t)
            rank = numerical_rank(slack.entries)
            zeros = int(np.count_nonzero(~nonzero_mask(slack.entries.ravel())))
            report.add(
                f"t={t}",
                rank=rank,
                psd_rank_lower=ceil(sqrt(rank)),
                zero_entries=zeros,
            )
    elif args.name == "mixedw":
        for n in range(2, 7) if args.n is None else args.n:
            rho, cert = mixed_w_generator(n)
            site = make_translation_invariant(cert.train)
            holds, bound = periodicity_lower_bound(site, n)
            report.add(
                f"n={n}",
                shift_defect=cyclic_shift_defect(rho),
                sep_inner_dim=cert.inner_dim,
                sep_residual=cert.residual,
                psd_core_defect=cert.psd_defect(),
                periodicity_holds=holds,
                ti_bond_lower_bound=bound,
            )
    elif args.name == "bounds":
        count = args.count
        violations = {
            "subadditive": 0,
            "submultiplicative": 0,
            "purification_square": 0,
            "separable_dominates_purification": 0,
            "dimension_cap": 0,
        }
        for k in range(count):
            n = 2 + (k % 2)
            dims = (2,) * n
            side = 2**n
            x = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            y = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            rho = PsdOperator(SiteSpec(dims), x @ x.conj().T)
            tau = PsdOperator(SiteSpec(dims), y @ y.conj().T)
            ra, rb = operator_schmidt_rank(rho), operator_schmidt_rank(tau)
            if operator_schmidt_rank(PsdOperator(SiteSpec(dims), rho.data + tau.data)) > ra + rb:
                violations["subadditive"] += 1
            if operator_schmidt_rank(rho.data @ tau.data, dims) > ra * rb:
                violations["submultiplicative"] += 1
            puri = local_purification_spectral(rho)
            if ra > puri.osr_L**2:
                violations["purification_square"] += 1
            if ra > schmidt_rank_cap(dims):
                violations["dimension_cap"] += 1
        for name, count_bad in violations.items():
            report.add(name, violations=count_bad, instances=count)
    else:
        raise UsageError(f"unknown experiment {args.name!r}")

    report.emit(args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpdo-kit",
        description="Decompositions of 1D psd operators and factorizations of nonnegative matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the options it reads
    options = {
        "--json": dict(action="store_true", help="emit the JSON report"),
        "--seed": dict(type=_nonneg_int, default=0, help="seed for randomized procedures"),
        "--tol": dict(type=float, default=DEFAULT_RANK_TOL, help="relative rank tolerance"),
        "--restarts": dict(type=_nonneg_int, default=SEARCH_RESTARTS),
        "--budget": dict(
            type=_nonneg_int,
            default=DEFAULT_SIGN_BUDGET,
            help="most sign patterns the sqrt and cpsdt sign walks may rank, counted after "
            "their pins: over it, sqrt refuses (convert --direction both reports it skipped) "
            "and cpsdt keeps the all-positive root; analyze's q_sqrt_rank has a fixed budget of its own",
        ),
    }

    def add_options(p, *names):
        for name in names:
            p.add_argument(name, **options[name])

    p = sub.add_parser("analyze", help="rank and bound report for a dense operator")
    p.add_argument("path")
    p.add_argument("--sites", type=_ints, help="comma-separated site dimensions, e.g. 2,2")
    add_options(p, "--json", "--seed", "--tol", "--restarts")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("factorize", help="factorize a nonnegative matrix")
    p.add_argument("path")
    p.add_argument(
        "--kind",
        required=True,
        help="minimal|nonneg|psd|symmetric|cp|cpsdt|sqrt (roman aliases i..vii accepted)",
    )
    p.add_argument(
        "--r", type=int, help="inner dimension for the searches (default: the numerical rank at --tol)"
    )
    add_options(p, *options)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("convert", help="convert between matrix and operator certificates")
    p.add_argument("path")
    p.add_argument("--kind", required=True)
    p.add_argument(
        "--direction",
        choices=("to-state", "to-matrix", "both"),
        default="both",
    )
    p.add_argument("--sites", type=_ints, help="site dimensions when the input is an operator")
    add_options(p, *options)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("experiment", help="canned studies: wstate | tgon | mixedw | bounds")
    p.add_argument("name", choices=("wstate", "tgon", "mixedw", "bounds"))
    p.add_argument("--n", type=_int_range, help="range of chain lengths, e.g. 3..10")
    p.add_argument("--t", type=_int_range, help="range of polygon sizes, e.g. 3..50")
    p.add_argument("--count", type=_nonneg_int, default=50)
    add_options(p, "--json", "--seed")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NecessaryConditionError as exc:
        print(f"rejected: {exc.condition}", file=sys.stderr)
        return EXIT_REJECTED
    except (InputError, UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
