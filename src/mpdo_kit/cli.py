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
from .certificates import FactorCertificate, NecessaryConditionError, as_nonneg
from .correspondence import (
    DiagBipartite,
    canonical_kind,
    decomposition_to_factorization,
    diag_embed,
    diag_extract,
    factorization_to_decomposition,
    verify_correspondence,
)
from .decompositions import (
    MAX_ENUM_RANK,
    is_diagonal,
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
    cp_factorization_search,
    cpsdt_construct,
    hadamard_root_certificate,
    minimal_factorization,
    nonneg_factorization_search,
    psd_factorization_search,
    scan_nonneg_certificate,
    slack_matrix_tgon,
    symmetric_factorization,
)
from .tensor_core import (
    DEFAULT_RANK_TOL,
    PsdOperator,
    SiteSpec,
    UsageError,
    contract_cyclic,
    contract_train,
    cyclic_shift_defect,
)

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3


class InputError(UsageError):
    """Bad input file; message carries the byte offset where parsing failed."""


# ---------------------------------------------------------------------------
# ingestion and JSON helpers


def _entry_to_complex(entry, offset_hint: int):
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(
        isinstance(x, (int, float)) for x in entry
    ):
        return complex(entry[0], entry[1])
    raise InputError(f"bad matrix entry near byte {offset_hint}: {entry!r}")


def _json_entries(data, rows: int, cols: int, offset_hint: int) -> np.ndarray:
    """``(rows, cols)`` array of JSON entries, plain numbers or ``[re, im]`` pairs.

    All plain numbers give a real array and all pairs a complex one, each
    converted in one ``np.array`` call.  Anything else (rows mixing the two
    forms, strings, nulls, other lengths) goes entry by entry into a
    complex array, which accepts the mix and rejects the rest.
    """
    try:
        arr = np.array(data)
    except ValueError:  # inhomogeneous nesting: numbers mixed with pairs
        arr = None
    if arr is not None and arr.dtype.kind in "biuf":
        if arr.shape == (rows, cols):
            return arr.astype(float, copy=False)
        if arr.shape == (rows, cols, 2):
            # C-ordered (re, im) float pairs are the complex128 layout
            return arr.astype(float, copy=False).view(complex)[..., 0]
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, offset_hint)
    return out


def load_matrix(path: str) -> np.ndarray:
    """Read a dense matrix from JSON or headerless CSV."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8", errors="replace")
    del raw  # a JSON parse peaks at text plus document; the bytes need not add to it
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"JSON parse error at byte {exc.pos}: {exc.msg}") from exc
        data_offset = text.find("data")
        del text
        for key in ("rows", "cols", "data"):
            if key not in doc:
                raise InputError(f"JSON matrix is missing the {key!r} field")
        rows, cols = int(doc["rows"]), int(doc["cols"])
        data = doc["data"]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InputError(f"data shape does not match rows={rows} cols={cols}")
        out = _json_entries(data, rows, cols, data_offset)
        if np.iscomplexobj(out) and np.abs(out.imag).max(initial=0.0) == 0.0:
            return out.real
        return out
    # headerless CSV
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


def jsonable(obj):
    """Recursively convert numpy scalars/arrays (complex as [re, im]) for JSON."""
    if isinstance(obj, complex):
        if obj.imag == 0.0:
            return obj.real
        return [obj.real, obj.imag]
    if isinstance(obj, (np.complexfloating,)):
        return jsonable(complex(obj))
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()] if obj.ndim else jsonable(obj.item())
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return obj


def encode_matrix(mat) -> list:
    """Nested-list encoding: floats for real arrays, uniform [re, im] pairs
    for complex arrays (so the nesting depth disambiguates on decode)."""
    mat = np.asarray(mat)
    if np.iscomplexobj(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return [[float(x) for x in row] for row in mat]


def decode_matrix(x) -> np.ndarray:
    depth = 0
    probe = x
    while isinstance(probe, list):
        depth += 1
        probe = probe[0] if probe else None
    if depth == 3:
        return np.asarray(
            [[complex(entry[0], entry[1]) for entry in row] for row in x]
        )
    if depth == 2:
        return np.asarray(x, dtype=float)
    raise InputError(f"bad matrix encoding (nesting depth {depth})")


def certificate_doc(matrix, cert: FactorCertificate) -> dict:
    payload = {}
    for key, val in cert.payload.items():
        if key in ("E", "F"):
            payload[key] = [encode_matrix(v) for v in val]
        elif key == "signs":
            payload[key] = np.asarray(val, dtype=int).tolist()
        else:
            payload[key] = encode_matrix(val)
    return {
        "kind": cert.kind,
        "inner_dim": cert.inner_dim,
        "residual": cert.residual,
        "payload": payload,
        "matrix": encode_matrix(np.asarray(matrix)),
    }


def certificate_from_doc(doc: dict) -> tuple[np.ndarray, FactorCertificate]:
    payload = {}
    for key, val in doc["payload"].items():
        if key in ("E", "F"):
            payload[key] = [decode_matrix(v) for v in val]
        elif key == "signs":
            payload[key] = np.asarray(val, dtype=int)
        else:
            payload[key] = decode_matrix(val)
    cert = FactorCertificate(doc["kind"], int(doc["inner_dim"]), payload, float(doc["residual"]))
    return decode_matrix(doc["matrix"]).real, cert


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
            "entries": jsonable(self.entries),
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
            print(json.dumps(self.document(), sort_keys=True, indent=2))
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


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def _parse_sites(spec: str | None, side: int) -> SiteSpec:
    if spec:
        return SiteSpec(tuple(int(x) for x in spec.split(",")))
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
    sites = _parse_sites(args.sites, matrix.shape[0])
    op = PsdOperator(sites, matrix)
    report = Report("analyze", args.seed)
    report.input = {"path": args.path, "sites": list(sites.dims)}

    train, osr = mpo_train_form(op, rel_tol=args.tol)
    recon = contract_train(train)
    train_residual = float(
        np.linalg.norm(recon - op.data) / max(np.linalg.norm(op.data), 1e-300)
    )
    report.add("osr", value=osr, certificate="train", residual=train_residual)

    puri = local_purification_spectral(op, rel_tol=args.tol)
    puri_upper = puri.osr_L
    eigs = op.eigenvalues()
    rank = int(np.count_nonzero(eigs > args.tol * max(eigs.max(), 1e-300)))
    q_rank = None
    if rank <= MAX_ENUM_RANK:
        q_rank, _ = q_sqrt_rank(op)
        puri_upper = min(puri_upper, q_rank) if q_rank > 0 else puri_upper
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
        cert = scan_nonneg_certificate(m, restarts=args.restarts, seed=args.seed)
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

    rank_default = max(int(np.linalg.matrix_rank(m)), 1)
    r = args.r if args.r is not None else rank_default

    if kind == "minimal":
        cert = minimal_factorization(m, args.tol)
    elif kind == "symmetric":
        cert = symmetric_factorization(m, args.tol)
    elif kind == "cpsdt":
        cert = cpsdt_construct(m, args.budget)
    elif kind == "hadamard-root":
        cert = hadamard_root_certificate(m, args.budget)
    elif kind == "nonnegative":
        cert = nonneg_factorization_search(m, r, args.restarts, args.iters, args.seed)
    elif kind == "psd":
        cert = psd_factorization_search(m, r, args.restarts, seed=args.seed)
    else:  # cp
        cert = cp_factorization_search(m, r, args.restarts, seed=args.seed)

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


def _state_decomposition_for(kind: str, m: np.ndarray, args):
    """Canonical state-side decomposition of diag_embed(m) for one kind."""
    target = DiagBipartite(m)
    if kind == "minimal":
        return factorization_to_decomposition(kind, minimal_factorization(m), target)
    if kind == "nonnegative":
        cert = scan_nonneg_certificate(m, restarts=args.restarts, seed=args.seed)
        return factorization_to_decomposition(kind, cert, target)
    if kind == "psd":
        puri = local_purification_spectral(diag_embed(m))
        cert = decomposition_to_factorization(kind, puri)
        return factorization_to_decomposition(kind, cert, target)
    if kind == "symmetric":
        return factorization_to_decomposition(kind, symmetric_factorization(m), target)
    if kind == "cp":
        cert = None
        for r in range(max(int(np.linalg.matrix_rank(m)), 1), m.shape[0] + 1):
            cert = cp_factorization_search(m, r, args.restarts, seed=args.seed)
            if cert is not None:
                break
        if cert is None:
            return None
        return factorization_to_decomposition(kind, cert, target)
    if kind == "cpsdt":
        return factorization_to_decomposition(kind, cpsdt_construct(m, args.budget), target)
    return factorization_to_decomposition(kind, hadamard_root_certificate(m, args.budget), target)


def cmd_convert(args) -> int:
    kind = canonical_kind(args.kind)
    with open(args.path, "rb") as fh:
        head = fh.read(4096).decode("utf-8", errors="replace").lstrip()
    is_cert = False
    if head.startswith("{"):
        with open(args.path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"JSON parse error at byte {exc.pos}: {exc.msg}") from exc
        is_cert = "kind" in doc and "payload" in doc

    report = Report("convert", args.seed)
    report.input = {"path": args.path, "kind": kind, "direction": args.direction}

    if is_cert:
        matrix, cert = certificate_from_doc(doc)
        dec = factorization_to_decomposition(kind, cert, DiagBipartite(matrix))
        report.add(
            "state_certificate",
            inner_dim=dec.inner_dim,
            residual=dec.residual,
            site_symmetric=dec.site_symmetric,
        )
        back = decomposition_to_factorization(kind, dec, sites=(matrix.shape[0], matrix.shape[1]))
        report.add("round_trip", inner_dim=back.inner_dim, residual=back.residual)
        report.emit(args.json)
        return EXIT_OK

    matrix = load_matrix(args.path)
    if args.sites:
        # operator input: must be diagonal bipartite
        sites = _parse_sites(args.sites, matrix.shape[0])
        if sites.n != 2:
            raise UsageError("conversion works on bipartite operators")
        m = diag_extract(PsdOperator(sites, matrix))
    else:
        if np.iscomplexobj(matrix):
            raise InputError("matrix input must be real; pass --sites for operator input")
        m = as_nonneg(matrix)

    if kind in ("symmetric", "cp", "cpsdt") and (
        m.shape[0] != m.shape[1]
        or np.abs(m - m.T).max(initial=0.0) > 1e-10 * max(np.abs(m).max(), 1e-300)
    ):
        raise UsageError(f"kind {kind!r} needs a symmetric matrix")

    if args.direction == "both":
        entry = verify_correspondence(
            kind, m, sign_budget=args.budget, restarts=args.restarts, seed=args.seed
        )
        report.add("correspondence", **{k: v for k, v in entry.items() if k != "kind"})
        report.emit(args.json)
        return EXIT_OK

    dec = _state_decomposition_for(kind, m, args)
    if dec is None:
        report.add("state_certificate", found=False)
        report.emit(args.json)
        return EXIT_NOT_FOUND
    report.add(
        "state_certificate",
        inner_dim=dec.inner_dim,
        residual=dec.residual,
        site_symmetric=dec.site_symmetric,
    )
    if args.direction == "to-matrix":
        back = decomposition_to_factorization(kind, dec, sites=(m.shape[0], m.shape[1]))
        report.add("matrix_certificate", kind=back.kind, inner_dim=back.inner_dim, residual=back.residual)
    report.emit(args.json)
    return EXIT_OK


def cmd_experiment(args) -> int:
    report = Report("experiment", args.seed)
    report.input = {"name": args.name}
    rng = np.random.default_rng(args.seed)

    if args.name == "wstate":
        for n in _parse_range(args.n or "3..10"):
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
        for t in _parse_range(args.t or "3..50"):
            slack = slack_matrix_tgon(t)
            cert = minimal_factorization(slack.entries)
            zeros = int(np.count_nonzero(slack.entries < 1e-9))
            report.add(
                f"t={t}",
                rank=cert.inner_dim,
                psd_rank_lower=ceil(sqrt(cert.inner_dim)),
                zero_entries=zeros,
            )
    elif args.name == "mixedw":
        for n in _parse_range(args.n or "2..6"):
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

    def common(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized procedures")
        p.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL, help="relative rank tolerance")
        p.add_argument("--restarts", type=int, default=20)
        p.add_argument("--iters", type=int, default=4000)
        p.add_argument("--budget", type=int, default=2**20, help="sign enumeration budget")

    p = sub.add_parser("analyze", help="rank and bound report for a dense operator")
    p.add_argument("path")
    p.add_argument("--sites", help="comma-separated site dimensions, e.g. 2,2")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("factorize", help="factorize a nonnegative matrix")
    p.add_argument("path")
    p.add_argument(
        "--kind",
        required=True,
        help="minimal|nonneg|psd|symmetric|cp|cpsdt|sqrt (roman aliases i..vii accepted)",
    )
    p.add_argument("--r", type=int, help="inner dimension for the searches")
    common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("convert", help="convert between matrix and operator certificates")
    p.add_argument("path")
    p.add_argument("--kind", required=True)
    p.add_argument(
        "--direction",
        choices=("to-state", "to-matrix", "both"),
        default="both",
    )
    p.add_argument("--sites", help="site dimensions when the input is an operator")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("experiment", help="canned studies: wstate | tgon | mixedw | bounds")
    p.add_argument("name", choices=("wstate", "tgon", "mixedw", "bounds"))
    p.add_argument("--n", help="range of chain lengths, e.g. 3..10")
    p.add_argument("--t", help="range of polygon sizes, e.g. 3..50")
    p.add_argument("--count", type=int, default=50)
    common(p)
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
