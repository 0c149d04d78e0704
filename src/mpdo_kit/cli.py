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
import datetime
import json
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
    MAX_ENUM_RANK,
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
    cp_factorization_search,
    minimal_factorization,
    nonneg_factorization_search,
    psd_factorization_search,
    slack_matrix_tgon,
)
from .tensor_core import (
    DEFAULT_RANK_TOL,
    PsdOperator,
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


# ---------------------------------------------------------------------------
# ingestion and JSON helpers


def _read_input(path: str):
    """Parse an input file once.

    Returns ``(document, byte offset of "data")`` for JSON and
    ``(matrix, None)`` for headerless CSV.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8", errors="replace")
    del raw  # a JSON parse peaks at text plus document; the bytes need not add to it
    if not text.lstrip().startswith("{"):
        return _csv_matrix(text), None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"JSON parse error at byte {exc.pos}: {exc.msg}") from exc
    return doc, text.find("data")


def _field(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"{where} is missing the {key!r} field")
    return doc[key]


def _count(doc: dict, key: str, where: str) -> int:
    val = _field(doc, key, where)
    if not isinstance(val, int) or isinstance(val, bool) or val < 0:
        raise InputError(f"{where} field {key!r} must be a nonnegative integer, got {val!r}")
    return val


def _json_matrix(doc, data_offset: int) -> np.ndarray:
    """The matrix of a parsed JSON matrix document."""
    shape = _count(doc, "rows", "JSON matrix"), _count(doc, "cols", "JSON matrix")
    out = decode_matrix(_field(doc, "data", "JSON matrix"), "data", shape, data_offset)
    if np.iscomplexobj(out) and np.abs(out.imag).max(initial=0.0) == 0.0:
        return out.real
    return out


def _csv_matrix(text: str) -> np.ndarray:
    """The matrix of headerless CSV text."""
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
                    raise InputError(
                        f"CSV parse error at byte {offset + col_offset}: {cell.strip()!r}"
                    ) from None
                col_offset += len(cell) + 1
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise InputError(f"ragged CSV row at byte {offset}")
            values.append(row)
        offset += len(line)
    if not values:
        raise InputError("empty input file")
    return np.asarray(values, dtype=float)


def load_matrix(path: str) -> np.ndarray:
    """Read a dense matrix from JSON or headerless CSV."""
    parsed, data_offset = _read_input(path)
    return parsed if data_offset is None else _json_matrix(parsed, data_offset)


def decode_matrix(data, field: str, shape=None, offset: int | None = None) -> np.ndarray:
    """The array of a JSON matrix, rows of numbers (real) or of [re, im] pairs (complex).

    Each form converts in one ``np.array`` call; rows that mix the two go
    entry by entry.  Anything else, or rows that are not of ``shape`` (when
    given), raises ``InputError`` naming ``field`` and the input's byte ``offset``.
    """
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise InputError(f"{field} must be a list of rows")
    if shape is None:
        shape = (len(data), len(data[0]) if data else 0)
    rows, cols = shape
    if len(data) != rows or any(len(row) != cols for row in data):
        raise InputError(f"{field} shape does not match rows={rows} cols={cols}")
    if 0 in shape:  # [] or rows of []: no entries to convert
        return np.zeros(shape)
    try:
        arr = np.array(data)
    except ValueError:  # inhomogeneous nesting: numbers mixed with pairs
        arr = None
    if arr is not None and arr.dtype.kind in "biuf":
        if arr.shape == shape:
            return arr.astype(float, copy=False)
        if arr.shape == (rows, cols, 2):
            # C-ordered (re, im) float pairs are the complex128 layout
            return arr.astype(float, copy=False).view(complex)[..., 0]
    where = field if offset is None else f"{field} near byte {offset}"
    out = np.empty(shape, dtype=complex)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            pair = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0]
            if not all(isinstance(x, (int, float)) for x in pair):
                raise InputError(f"bad matrix entry in {where}: {entry!r}")
            out[i, j] = complex(*pair)
    return out


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

    A missing field, an unknown kind, or a matrix that does not fit the
    kind, the inner dimension and the matrix raises ``InputError`` naming
    the field.
    """
    where = "certificate document"
    kind = _field(doc, "kind", where)
    if kind not in KINDS:
        raise InputError(f"{where} field 'kind' is not a certificate kind: {kind!r}")
    r = _count(doc, "inner_dim", where)
    residual = _field(doc, "residual", where)
    if isinstance(residual, bool) or not isinstance(residual, (int, float)):
        raise InputError(f"{where} field 'residual' must be a number, got {residual!r}")
    payload = _field(doc, "payload", where)
    matrix = decode_matrix(_field(doc, "matrix", where), "matrix").real
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


def _int_range(spec: str) -> list[int]:
    """argparse type: an inclusive range lo..hi, or comma-separated integers."""
    lo, dots, hi = spec.partition("..")
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
    matrix = load_matrix(args.path)
    if matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"analyze needs a square operator, got {matrix.shape}")
    sites = _site_spec(args.sites, matrix.shape[0])
    op = PsdOperator(sites, matrix)
    report = Report("analyze", args.seed)
    report.input = {"path": args.path, "sites": list(sites.dims)}

    train, osr = mpo_train_form(op, rel_tol=args.tol)
    report.add("osr", value=osr, certificate="train", residual=relative_residual(contract_train(train), op.data))

    # one eigendecomposition for the purification, the rank gate and q_sqrt_rank
    spectrum = clipped_spectrum(op, args.tol)
    puri = local_purification_spectral(op, rel_tol=args.tol, spectrum=spectrum)
    puri_upper = puri.osr_L
    q_rank = None
    if spectrum[0].size <= MAX_ENUM_RANK:
        q_rank, _ = q_sqrt_rank(op, rel_tol=args.tol, spectrum=spectrum)
        puri_upper = min(puri_upper, q_rank) if q_rank > 0 else puri_upper
    # at full rank the eigenvectors are as large as rho; free them now
    del spectrum
    puri_lower = max(ceil(sqrt(osr)), 1) if osr else 0
    report.add(
        "puri_rank",
        interval=[puri_lower, max(puri_upper, puri_lower)] if osr else [0, 0],
        certificate="spectral purification",
        residual=puri.residual,
    )
    # the enumeration is exact only in a diagonal eigenbasis
    diagonal = is_diagonal(op)
    if q_rank is not None:
        report.add(
            "q_sqrt_rank",
            value=q_rank,
            certificate="sign enumeration" if diagonal else "sign enumeration (upper bound)",
            exact=diagonal,
        )

    report.add("diagonal", value=diagonal)
    if diagonal and sites.n == 2:
        m = diag_extract(op)
        cert = _matrix_certificate("nonnegative", m, rel_tol=args.tol, restarts=args.restarts, seed=args.seed)
        report.add(
            "sep_rank",
            interval=[osr, cert.inner_dim],
            certificate="nonnegative factorization scan",
            residual=cert.residual,
        )

    cap = schmidt_rank_cap(sites.dims)
    report.add("dimension_bound_osr", value=bool(osr <= cap), bound=cap)
    report.add("dimension_bound_puri", value=bool(puri_upper <= cap), bound=cap)
    if diagonal and sites.n == 2:
        sep_cap = sites.total_dim**2
        report.add("dimension_bound_sep", value=bool(cert.inner_dim <= sep_cap), bound=sep_cap)
    report.add("purification_square_bound", value=bool(osr <= max(puri_upper, 1) ** 2))
    report.emit(args.json)
    return EXIT_OK


def cmd_factorize(args) -> int:
    matrix = load_matrix(args.path)
    if np.iscomplexobj(matrix):
        raise InputError("factorize expects a real nonnegative matrix")
    kind = canonical_kind(args.kind)
    m = as_nonneg(matrix)
    report = Report("factorize", args.seed)
    report.input = {"path": args.path, "kind": kind, "shape": list(m.shape)}

    r = args.r if args.r is not None else max(numerical_rank(m, args.tol), 1)

    if kind == "nonnegative":
        cert = nonneg_factorization_search(m, r, args.restarts, seed=args.seed)
    elif kind == "psd":
        cert = psd_factorization_search(m, r, args.restarts, seed=args.seed)
    elif kind == "cp":
        cert = cp_factorization_search(m, r, args.restarts, seed=args.seed)
    else:
        cert = _matrix_certificate(kind, m, rel_tol=args.tol, sign_budget=args.budget)

    if cert is None:
        report.add("certificate", found=False, kind=kind, r=r)
        report.emit(args.json)
        return EXIT_NOT_FOUND
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
    parsed, data_offset = _read_input(args.path)
    report = Report("convert", args.seed)
    report.input = {"path": args.path, "kind": kind, "direction": args.direction}

    if data_offset is not None and "payload" in parsed:
        matrix, cert = certificate_from_doc(parsed)
        dec = factorization_to_decomposition(kind, cert, DiagBipartite(matrix), args.tol)
        report.add(
            "state_certificate",
            inner_dim=dec.inner_dim,
            residual=dec.residual,
            site_symmetric=dec.site_symmetric,
        )
        back = decomposition_to_factorization(kind, dec, (matrix.shape[0], matrix.shape[1]), args.tol)
        report.add("round_trip", inner_dim=back.inner_dim, residual=back.residual)
        report.emit(args.json)
        return EXIT_OK

    matrix = parsed if data_offset is None else _json_matrix(parsed, data_offset)
    del parsed  # a JSON document holds a Python object per entry; free it before the conversion
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
    dec = factorization_to_decomposition(kind, cert, DiagBipartite(m), args.tol)
    report.add(
        "state_certificate",
        inner_dim=dec.inner_dim,
        residual=dec.residual,
        site_symmetric=dec.site_symmetric,
    )
    if args.direction == "to-matrix":
        back = decomposition_to_factorization(kind, dec, (m.shape[0], m.shape[1]), args.tol)
        report.add("matrix_certificate", kind=back.kind, inner_dim=back.inner_dim, residual=back.residual)
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
            cert = minimal_factorization(slack.entries)
            zeros = int(np.count_nonzero(~nonzero_mask(slack.entries.ravel())))
            report.add(
                f"t={t}",
                rank=cert.inner_dim,
                psd_rank_lower=ceil(sqrt(cert.inner_dim)),
                zero_entries=zeros,
            )
    elif args.name == "mixedw":
        for n in range(2, 7) if args.n is None else args.n:
            rho, cert = mixed_w_generator(n)
            train, _ = mpo_train_form(rho)
            site = make_translation_invariant(train)
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
        "--seed": dict(type=int, default=0, help="seed for randomized procedures"),
        "--tol": dict(type=float, default=DEFAULT_RANK_TOL, help="relative rank tolerance"),
        "--restarts": dict(type=int, default=20),
        "--budget": dict(type=int, default=DEFAULT_SIGN_BUDGET, help="sign enumeration budget"),
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
    p.add_argument("--count", type=int, default=50)
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
