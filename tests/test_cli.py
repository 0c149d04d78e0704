import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpdo_kit import cli, decompositions
from mpdo_kit.certificates import KINDS
from mpdo_kit.cli import (
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    InputError,
    Report,
    certificate_doc,
    certificate_from_doc,
    load_matrix,
    main,
)
from mpdo_kit.correspondence import _matrix_certificate, verify_correspondence
from mpdo_kit.decompositions import PurificationCertificate, w_state_generators
from mpdo_kit.nonneg_factorizations import minimal_factorization, scan_cp_certificate, slack_matrix_tgon


def write_json_matrix(path, matrix):
    matrix = np.asarray(matrix)
    data = []
    for row in matrix:
        out_row = []
        for entry in row:
            z = complex(entry)
            out_row.append(z.real if z.imag == 0.0 else [z.real, z.imag])
        data.append(out_row)
    path.write_text(
        json.dumps({"rows": matrix.shape[0], "cols": matrix.shape[1], "data": data})
    )
    return str(path)


def write_csv_matrix(path, matrix):
    lines = [",".join(str(float(x)) for x in row) for row in np.asarray(matrix)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def entry_named(doc, name):
    for entry in doc["entries"]:
        if entry["name"] == name:
            return entry
    raise KeyError(name)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_diag_embed_identity(tmp_path, capsys):
    path = write_json_matrix(tmp_path / "op.json", np.diag([1.0, 0.0, 0.0, 1.0]))
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2", "--json"])
    assert code == EXIT_OK
    assert doc["schema"] == "mpdo-kit/1"
    assert entry_named(doc, "osr")["value"] == 2
    assert entry_named(doc, "puri_rank")["interval"] == [2, 2]
    assert entry_named(doc, "diagonal")["value"] is True


def test_analyze_entangled_projector(tmp_path, capsys):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1.0 / np.sqrt(2)
    path = write_json_matrix(tmp_path / "op.json", np.outer(phi, phi))
    code, doc = run_json(capsys, ["analyze", path, "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "osr")["value"] == 4
    assert entry_named(doc, "puri_rank")["interval"] == [2, 2]


def test_analyze_product_state(tmp_path, capsys):
    rho = np.kron(np.diag([0.25, 0.75]), np.diag([1.0, 0.0]))
    path = write_json_matrix(tmp_path / "op.json", rho)
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "osr")["value"] == 1
    assert entry_named(doc, "puri_rank")["interval"] == [1, 1]
    assert entry_named(doc, "sep_rank")["interval"] == [1, 1]


def test_analyze_q_sqrt_rank_exact_only_when_diagonal(tmp_path, capsys):
    path = write_json_matrix(tmp_path / "diag.json", np.diag([1.0, 0.0, 0.0, 1.0]))
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2", "--json"])
    assert code == EXIT_OK
    entry = entry_named(doc, "q_sqrt_rank")
    assert (entry["value"], entry["exact"], entry["certificate"]) == (2, True, "sign enumeration")

    rho = np.full((4, 4), 0.1) + np.diag([1.0, 2.0, 3.0, 4.0])
    path = write_json_matrix(tmp_path / "dense.json", rho)
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2", "--json"])
    assert code == EXIT_OK
    entry = entry_named(doc, "q_sqrt_rank")
    assert entry["exact"] is False
    assert entry["certificate"] == "sign enumeration (upper bound)"


def test_analyze_diagonal_flag_agrees_with_exact(tmp_path, capsys):
    # off-diagonal mass 2e-11 relative: above DIAG_TOL, so neither diagonal nor exact
    rho = np.diag([1.0, 2.0, 3.0, 4.0])
    rho[0, 3] = rho[3, 0] = 2e-11 * np.linalg.norm(rho) / np.sqrt(2)
    path = write_json_matrix(tmp_path / "near.json", rho)
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "diagonal")["value"] is False
    assert entry_named(doc, "q_sqrt_rank")["exact"] is False


def test_analyze_diagonalizes_rho_once(tmp_path, capsys, monkeypatch):
    # rank 2, not diagonal: the purification, the rank gate and the dense
    # q_sqrt_rank path all read one eigendecomposition
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    path = write_json_matrix(tmp_path / "rho.json", x @ x.conj().T)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2", "--json"])
    assert code == EXIT_OK
    assert calls == ["eigh"]
    assert entry_named(doc, "q_sqrt_rank")["exact"] is False


def test_analyze_q_sqrt_rank_uses_the_tolerance_of_its_gate(tmp_path, capsys):
    # rank 20 at the default tolerance, rank 1 at --tol 1e-3: the enumeration
    # keeps the support of --tol.  At the default its 20 signs leave, after
    # the per-site pins, a walk within the operator budget (a rank cap of 16
    # once refused it)
    rho = np.diag([1.0] + [1e-4] * 19 + [0.0] * 12)
    path = write_json_matrix(tmp_path / "rho.json", rho)
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2,2,2,2", "--tol", "1e-3", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "q_sqrt_rank")["value"] == 1
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2,2,2,2", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "q_sqrt_rank")["value"] == 3


def test_analyze_reports_q_sqrt_rank_of_a_diagonal_walk_within_budget(tmp_path, capsys):
    # 18 nonzeros on 8 qubits: over the old rank cap of 16, but the per-site
    # pins leave a walk within the operator budget of 2^15
    rng = np.random.default_rng(1)
    diag = np.zeros(256)
    diag[rng.choice(256, 18, replace=False)] = rng.uniform(0.25, 4.0, 18)
    path = write_json_matrix(tmp_path / "diag.json", np.diag(diag))
    code, doc = run_json(capsys, ["analyze", path, "--sites", ",".join(["2"] * 8), "--json"])
    assert code == EXIT_OK
    entry = entry_named(doc, "q_sqrt_rank")
    assert (entry["value"], entry["exact"]) == (9, True)


def test_analyze_leaves_out_q_sqrt_rank_over_budget(tmp_path, capsys):
    # dense rank 17 on 5 qubits: 2^16 sign vectors, over the budget of 2^15
    x = np.random.default_rng(17).normal(size=(32, 17))
    path = write_json_matrix(tmp_path / "rho.json", x @ x.T)
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2,2,2,2", "--json"])
    assert code == EXIT_OK
    assert "q_sqrt_rank" not in [entry["name"] for entry in doc["entries"]]
    assert entry_named(doc, "diagonal")["value"] is False


@pytest.mark.parametrize("p, r, puri", [(5, 2, [2, 2]), (6, 3, [2, 3])])
def test_analyze_bounds_puri_by_the_sep_scan(tmp_path, capsys, p, r, puri):
    # puri <= sep: on diag_embed of a rank-r nonnegative product, the
    # purification interval ended at the spectral purification's p
    rng = np.random.default_rng(3)
    m = rng.uniform(0, 1, (p, r)) @ rng.uniform(0, 1, (r, p))
    path = write_json_matrix(tmp_path / "op.json", np.diag(m.ravel()))
    code, doc = run_json(capsys, ["analyze", path, "--sites", f"{p},{p}", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "sep_rank")["interval"] == [r, r]
    assert entry_named(doc, "puri_rank")["interval"] == puri
    assert entry_named(doc, "dimension_bound_puri")["value"] is True


def test_analyze_catches_only_the_budget_refusal(tmp_path, capsys, monkeypatch):
    # a materially non-psd operator is an input error, not an over-budget walk
    path = write_json_matrix(tmp_path / "rho.json", np.diag([1.0, -0.5, 1.0, 1.0]))
    assert main(["analyze", path, "--sites", "2,2", "--json"]) == EXIT_USAGE
    assert "materially non-psd" in capsys.readouterr().err

    # any other error of q_sqrt_rank still ends the command
    def failing(*args, **kwargs):
        raise cli.UsageError("not a budget refusal")

    monkeypatch.setattr(cli, "q_sqrt_rank", failing)
    path = write_json_matrix(tmp_path / "ok.json", np.diag([1.0, 0.5, 1.0, 1.0]))
    assert main(["analyze", path, "--sites", "2,2", "--json"]) == EXIT_USAGE
    assert "not a budget refusal" in capsys.readouterr().err


def write_raw_json(path, data, rows=2, cols=2):
    path.write_text(json.dumps({"rows": rows, "cols": cols, "data": data}))
    return str(path)


def loop_reference(data):
    """Entry-by-entry decoding, the behaviour the vectorized path must keep."""
    out = np.array([[complex(*e) if isinstance(e, list) else complex(e) for e in row] for row in data])
    return out.real if np.abs(out.imag).max() == 0.0 else out


@pytest.mark.parametrize(
    "data",
    [
        [[1, 2.5], [-3.0, 4]],
        [[[1.0, 0.5], [2, 0]], [[3.0, -1.0], [4.0, 2.0]]],
        [[[1.0, 0.0], [2, 0]], [[3.0, 0.0], [4.0, 0.0]]],
        [[1.0, [2.0, 1.0]], [3, 4.0]],
        [[1.0, [2.0, 0.0]], [3, 4.0]],
    ],
    ids=["real", "pairs", "pairs-real-valued", "mixed", "mixed-real-valued"],
)
def test_load_matrix_json_forms(tmp_path, data):
    got = load_matrix(write_raw_json(tmp_path / "m.json", data))
    want = loop_reference(data)
    assert got.dtype == want.dtype and got.shape == (2, 2)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "data, message",
    [
        ([["1.0", 2.0], [3.0, 4.0]], "bad matrix entry"),
        ([[1.0, None], [3.0, 4.0]], "bad matrix entry"),
        ([[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]], "bad matrix entry"),
        ([[1.0, [2.0, 3.0, 4.0]], [3.0, 4.0]], "bad matrix entry"),
        ([[1.0, 2.0], [3.0]], "data shape does not match"),
        ([[1.0, 2.0]], "data shape does not match"),
    ],
    ids=["string", "null", "triples", "one-triple", "ragged", "missing-row"],
)
def test_load_matrix_json_rejects(tmp_path, data, message):
    with pytest.raises(InputError, match=message):
        load_matrix(write_raw_json(tmp_path / "m.json", data))


def test_analyze_malformed_json_names_offset(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2, "cols": 2, "data": [[1, 2], [3 4]]}')
    code = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "byte" in err


def test_analyze_malformed_csv_names_offset(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    code = main(["factorize", str(path), "--kind", "minimal"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "byte 6" in err


@pytest.mark.parametrize(
    "raw,at",
    [
        ("１,2\n3,oops\n".encode(), b"oops"),
        ("１,2\n3\n".encode(), b"3\n"),
        ("１,2\n3,inf\n".encode(), b"3,inf"),
        ("1,2\n１,".encode() + b"\xff\n", b"\xff"),
    ],
    ids=["bad-cell", "ragged", "non-finite", "not-utf8"],
)
def test_malformed_csv_names_the_byte_offset_past_multibyte_text(tmp_path, capsys, raw, at):
    # the fullwidth digit is one character of three bytes, and float() reads it as 1
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    assert main(["factorize", str(path), "--kind", "minimal"]) == EXIT_USAGE
    offset = int(re.search(r"byte (\d+)", capsys.readouterr().err).group(1))
    assert raw.startswith(at, offset), raw[offset:]


MINIMAL_CERT = {
    "kind": "minimal",
    "inner_dim": 1,
    "residual": 0.0,
    "payload": {"left": [[1.0], [2.0]], "right": [[1.0, 2.0]]},
    "matrix": [[1.0, 2.0], [2.0, 4.0]],
}


def edited_cert(edit):
    doc = json.loads(json.dumps(MINIMAL_CERT))
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["analyze", "in.json"], {"rows": 1, "cols": 1, "data": 5}, "data"),
        (["analyze", "in.json"], {"rows": 1, "cols": 1, "data": [5]}, "data"),
        (["analyze", "in.json"], {"rows": "x", "cols": 2, "data": [[1, 2], [3, 4]]}, "'rows'"),
        (["convert", "in.json", "--kind", "minimal"], edited_cert(lambda d: d.pop("matrix")), "'matrix'"),
        (["convert", "in.json", "--kind", "minimal"], edited_cert(lambda d: d.update(kind="bogus")), "'kind'"),
        (["convert", "in.json", "--kind", "minimal"], edited_cert(lambda d: d["payload"].pop("left")), "'left'"),
        (
            ["convert", "in.json", "--kind", "minimal"],
            edited_cert(lambda d: d["payload"].update(left=[[1, [2, 3]], [1, [2, 3]]])),
            "'left'",
        ),
        *[
            (["convert", "in.json", "--kind", "minimal"], edited_cert(lambda d, r=r: d.update(residual=r)),
             "field 'residual' must be finite")
            for r in (float("nan"), float("inf"), -float("inf"), 10**400)
        ],
        (
            ["convert", "in.json", "--kind", "minimal"],
            edited_cert(lambda d: d.update(matrix=[[1e308, 1e308], [1e308, 1e308]])),
            "field 'matrix' is too large: its Frobenius norm overflows",
        ),
        (["analyze", "eye4.csv", "--sites", "a,b"], None, "argument --sites"),
        (["experiment", "wstate", "--n", "3..x"], None, "argument --n"),
        (["experiment", "tgon", "--t", "5,,6"], None, "argument --t"),
    ],
    ids=[
        "data-number", "data-row-number", "rows-string", "cert-no-matrix", "cert-bogus-kind",
        "cert-no-left", "cert-row-misfit", "cert-residual-nan", "cert-residual-inf",
        "cert-residual-minus-inf", "cert-residual-huge-int", "cert-matrix-overflows",
        "sites-letters", "n-bad-range", "t-empty-item",
    ],
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, doc, message):
    (tmp_path / "in.json").write_text(json.dumps(doc))
    write_csv_matrix(tmp_path / "eye4.csv", np.eye(4))
    argv = [str(tmp_path / a) if a in ("in.json", "eye4.csv") else a for a in argv]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert "Traceback" not in err


NAN_4X4_CSV = "1,0,0,0\n0,1,0,0\n0,0,nan,0\n0,0,0,1\n"


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        ("m.csv", "1,inf\n2,3\n", ["factorize", "--kind", "minimal"], "CSV row 0 at byte 0"),
        ("m.json", '{"rows": 1, "cols": 1, "data": [[NaN]]}', ["factorize", "--kind", "minimal"],
         "data row 0 at byte 32"),
        ("op.csv", NAN_4X4_CSV, ["analyze"], "CSV row 2 at byte 16"),
    ],
    ids=["csv-inf-factorize", "json-nan-factorize", "csv-nan-analyze"],
)
def test_non_finite_input_is_a_usage_error(tmp_path, capsys, name, text, argv, message):
    (tmp_path / name).write_text(text)
    assert main([argv[0], str(tmp_path / name), *argv[1:]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: non-finite entry in {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("shape", [(0, 0), (2, 0), (0, 2)])
@pytest.mark.parametrize(
    "argv", [["factorize", "--kind", "minimal"], ["convert", "--kind", "minimal"], ["analyze"]],
    ids=["factorize", "convert", "analyze"],
)
def test_empty_input_matrix_is_a_usage_error(tmp_path, capsys, argv, shape):
    path = write_raw_json(tmp_path / "empty.json", [[]] * shape[0], *shape)
    assert main([argv[0], path, *argv[1:]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: JSON matrix is empty" in err and "Traceback" not in err


@pytest.mark.parametrize("im, code", [(1.0, EXIT_USAGE), (0.0, EXIT_OK)], ids=["complex", "real-valued"])
def test_convert_refuses_a_complex_certificate_matrix(tmp_path, capsys, im, code):
    path = write_csv_matrix(tmp_path / "m.csv", [[1.0, 2.0], [2.0, 4.0]])
    _, doc = run_json(capsys, ["factorize", path, "--kind", "minimal", "--json"])
    cert = entry_named(doc, "certificate")["payload"]
    cert["matrix"][0][0] = [cert["matrix"][0][0], im]
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    assert main(["convert", str(tmp_path / "cert.json"), "--kind", "minimal"]) == code
    err = capsys.readouterr().err
    assert ("error: certificate document field 'matrix' must be real" in err) == (code == EXIT_USAGE)


def test_convert_refuses_a_non_finite_certificate_entry(tmp_path, capsys):
    doc = edited_cert(lambda d: d["payload"]["left"][1].__setitem__(0, float("nan")))
    (tmp_path / "cert.json").write_text(json.dumps(doc))
    assert main(["convert", str(tmp_path / "cert.json"), "--kind", "minimal"]) == EXIT_USAGE
    assert "error: non-finite entry in payload field 'left' row 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["factorize", "--kind", "minimal"], ["convert", "--kind", "minimal"], ["analyze"]],
    ids=["factorize", "convert", "analyze"],
)
@pytest.mark.parametrize("suffix", ["json", "csv"])
def test_input_whose_norm_overflows_is_a_usage_error(tmp_path, capsys, argv, suffix):
    # every entry is finite, but the Frobenius norm (and the SVD) overflow
    huge = np.full((2, 2), 1e308)
    path = (write_json_matrix if suffix == "json" else write_csv_matrix)(tmp_path / f"m.{suffix}", huge)
    assert main([argv[0], path, *argv[1:]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: input matrix is too large: its Frobenius norm overflows" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e307])
def test_input_whose_norm_is_finite_is_factorized(tmp_path, capsys, scale):
    # the sum of squares overflows from ~1e154 on, but the norm itself does not
    path = write_json_matrix(tmp_path / "m.json", [[scale, 0.0], [0.0, scale]])
    code, doc = run_json(capsys, ["factorize", path, "--kind", "minimal", "--json"])
    cert = entry_named(doc, "certificate")
    assert code == EXIT_OK and (cert["inner_dim"], cert["residual"]) == (2, 0.0)


def symmetric_cp_matrix():
    a = np.random.default_rng(13).uniform(0.1, 1.0, (4, 3))
    return a @ a.T


@pytest.mark.parametrize("matrix", [symmetric_cp_matrix(), np.zeros((2, 2))], ids=["random", "zero"])
@pytest.mark.parametrize("kind", KINDS)
def test_certificate_documents_round_trip_bit_for_bit(kind, matrix):
    cert = _matrix_certificate(kind, matrix)
    back_matrix, back = certificate_from_doc(json.loads(json.dumps(certificate_doc(matrix, cert))))
    assert (back.kind, back.inner_dim, back.residual) == (cert.kind, cert.inner_dim, cert.residual)
    assert back.payload.keys() == cert.payload.keys()
    pairs = [(matrix, back_matrix)]
    for key, val in cert.payload.items():
        got = back.payload[key]
        assert isinstance(got, list) == isinstance(val, list)
        pairs += list(zip(val, got, strict=True)) if isinstance(val, list) else [(val, got)]
    for want, got in pairs:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def jsonable(obj):
    """The recursive walk that prepared report entries for ``json.dumps``
    before the encoder hook; the oracle of the hook."""
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


@pytest.mark.parametrize(
    "value",
    [
        np.int64(-3), np.int32(7), np.uint8(255), np.float64(0.1), np.float32(0.3), np.float64(-0.0),
        np.complex128(1.5 - 2j), np.complex64(0.5 + 0.25j), np.complex128(2.0), complex(3.0, -0.0),
        complex(0.0, 1.0), np.array(4.5), np.array(1 + 0j), np.array(2j), np.array(7),
        np.arange(6).reshape(2, 3), np.array([[1.0, 2 + 1j], [3j, -1.0]]), np.zeros((2, 0)),
        (1, np.float64(2.5), (np.int64(3), [np.complex128(1j)])),
        {"nested": [np.array([1.0, 2.0]), (np.float32(1.5),)], "plain": [1, 2.0, "s", None, True]},
    ],
)
def test_report_hook_matches_the_recursive_walk(capsys, value):
    report = Report("hook")
    report.add("value", value=value)
    report.emit(True)
    doc = report.document()
    doc["entries"] = jsonable(doc["entries"])
    want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    timestamp = re.compile(r'"timestamp": \{.*?\n  \}', re.S)
    assert timestamp.sub("", capsys.readouterr().out) == timestamp.sub("", want)


def rand_density(n, rng, factors=1):
    """A random full-rank operator on n qubits, or the product of ``factors``
    random operators on equal blocks of them, which is Schmidt rank-deficient
    at the cuts between the blocks."""
    out = np.ones((1, 1))
    for _ in range(factors):
        d = 2 ** (n // factors)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out = np.kron(out, x @ x.conj().T / d)
    return out


def analyze_report(capsys, path, n):
    code, doc = run_json(capsys, ["analyze", path, "--sites", ",".join(["2"] * n), "--json"])
    assert code == EXIT_OK
    doc.pop("timestamp")
    return doc


def contracting_every_train(monkeypatch):
    """Report every split as one the SVD made, so that every train is contracted back and checked."""
    split = decompositions._bond_split
    monkeypatch.setattr(decompositions, "_bond_split", lambda *args: split(*args)[:3] + (False,))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_full_rank_analyze_contracts_no_train(tmp_path, capsys, monkeypatch, n):
    # every cut is screened, so both trains are their input between identity
    # cores: the report is the one that contracts them back, bit for bit
    path = write_json_matrix(tmp_path / "rho.json", rand_density(n, np.random.default_rng(60 + n)))
    with monkeypatch.context() as patch:
        contracting_every_train(patch)
        want = analyze_report(capsys, path, n)

    def refuse(train):
        raise AssertionError("an exact train was contracted")

    monkeypatch.setattr(cli, "contract_train", refuse)
    monkeypatch.setattr(decompositions, "contract_train", refuse)
    got = analyze_report(capsys, path, n)
    assert got == want
    assert entry_named(got, "osr")["residual"] == 0.0


@pytest.mark.parametrize("n, factors", [(4, 1), (5, 1), (6, 2), (8, 2)])
def test_analyze_contracts_trains_with_an_svd_cut(tmp_path, capsys, monkeypatch, n, factors):
    # 4 and 5 qubits split below SCREEN_MIN_ENTRIES; a product of two blocks
    # is rank-deficient at the cut between them, in rho and in its root
    path = write_json_matrix(tmp_path / "rho.json", rand_density(n, np.random.default_rng(70 + n), factors))
    with monkeypatch.context() as patch:
        contracting_every_train(patch)
        want = analyze_report(capsys, path, n)
    calls = []
    contract = decompositions.contract_train

    def counting(train):
        calls.append(train)
        return contract(train)

    monkeypatch.setattr(cli, "contract_train", counting)
    monkeypatch.setattr(decompositions, "contract_train", counting)
    assert analyze_report(capsys, path, n) == want
    assert len(calls) == 2


def test_analyze_tests_diagonality_once(tmp_path, capsys, monkeypatch):
    calls = []
    test = cli.is_diagonal

    def counting(rho):
        calls.append(1)
        return test(rho)

    monkeypatch.setattr(cli, "is_diagonal", counting)
    monkeypatch.setattr(decompositions, "is_diagonal", counting)
    rng = np.random.default_rng(80)
    for rho in (rand_density(3, rng), np.diag(rng.uniform(0.5, 2.0, 8))):
        calls.clear()
        doc = analyze_report(capsys, write_json_matrix(tmp_path / "rho.json", rho), 3)
        assert len(calls) == 1
        assert entry_named(doc, "q_sqrt_rank")["exact"] == entry_named(doc, "diagonal")["value"]


def test_full_rank_analyze_peaks_below_five_operators(tmp_path, capsys, monkeypatch, traced_memory):
    # 7 qubits, a file of ~11 chunks of 64 KiB: the read holds a chunk of
    # text, no train is contracted, and the root is built with no conjugate
    # copy of the eigenvectors (the whole file's bytes and text, the
    # contractions and the conjugate copies peaked at 6.45 operators)
    monkeypatch.setattr(cli, "READ_CHUNK_BYTES", 2**16)
    rho = rand_density(7, np.random.default_rng(81))
    path = tmp_path / "rho.json"
    pairs = np.stack((rho.real, rho.imag), axis=-1).tolist()
    path.write_text(json.dumps({"rows": 128, "cols": 128, "data": pairs}))
    assert path.stat().st_size > 10 * 2**16
    with traced_memory() as mem:
        assert main(["analyze", str(path), "--sites", ",".join(["2"] * 7), "--json"]) == EXIT_OK
    assert mem.peak - mem.base < 5 * rho.nbytes, f"peak {(mem.peak - mem.base) / rho.nbytes:.2f} operators"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# factorize


def test_factorize_cp_rejection_flip(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "m.csv", [[0, 1], [1, 0]])
    code = main(["factorize", path, "--kind", "cp"])
    err = capsys.readouterr().err
    assert code == EXIT_REJECTED
    assert "not psd" in err


def test_factorize_sqrt_flip(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "m.csv", [[0, 1], [1, 0]])
    code, doc = run_json(capsys, ["factorize", path, "--kind", "sqrt", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "certificate")["inner_dim"] == 2


def test_factorize_and_convert_sqrt_count_the_same_sign_budget(tmp_path, capsys):
    # a dense 3 x 4 input: 12 signs, of which the row and column flips pin
    # 3 + 4 - 1, so 2^6 patterns are ranked (2^12 would exceed 1024)
    path = write_csv_matrix(tmp_path / "m.csv", np.random.default_rng(3).uniform(0.25, 4.0, (3, 4)))
    factorize = ["factorize", path, "--kind", "sqrt", "--json"]
    convert = ["convert", path, "--kind", "sqrt", "--direction", "both", "--json"]
    code, doc = run_json(capsys, factorize + ["--budget", "1024"])
    assert code == EXIT_OK
    inner = entry_named(doc, "certificate")["inner_dim"]
    code, doc = run_json(capsys, convert + ["--budget", "1024"])
    assert code == EXIT_OK
    c = entry_named(doc, "correspondence")
    assert (c["matrix_side"], c["state_side"], c["verdict"]) == (inner, inner, "exact-match")
    # one pattern short, factorize refuses and convert skips, both naming the count
    assert main(factorize + ["--budget", "63"]) == EXIT_USAGE
    assert "12 nonzero entries leave 2^6 sign patterns to rank" in capsys.readouterr().err
    code, doc = run_json(capsys, convert + ["--budget", "63"])
    c = entry_named(doc, "correspondence")
    assert c["verdict"] == "skipped"
    assert "12 nonzero entries leave 2^6 sign patterns to rank" in c["note"]


def test_convert_sqrt_answers_what_factorize_answers(tmp_path, capsys):
    # a dense 4 x 5 input: 20 signs, once over the rank cap of 16 that
    # convert's q_sqrt_rank applied; both sides now walk the same 2^12 patterns
    path = write_csv_matrix(tmp_path / "m.csv", np.random.default_rng(0).uniform(0.25, 4.0, (4, 5)))
    code, doc = run_json(capsys, ["factorize", path, "--kind", "sqrt", "--json"])
    assert code == EXIT_OK
    inner = entry_named(doc, "certificate")["inner_dim"]
    code, doc = run_json(capsys, ["convert", path, "--kind", "sqrt", "--direction", "both", "--json"])
    assert code == EXIT_OK
    c = entry_named(doc, "correspondence")
    assert (c["matrix_side"], c["state_side"], c["verdict"]) == (inner, inner, "exact-match")


def test_factorize_minimal_icosagon_slack(tmp_path, capsys):
    from mpdo_kit.nonneg_factorizations import slack_matrix_tgon

    path = write_csv_matrix(tmp_path / "s20.csv", slack_matrix_tgon(20).entries)
    code, doc = run_json(capsys, ["factorize", path, "--kind", "minimal", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "certificate")["inner_dim"] == 3


def test_factorize_search_exhausted(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "m.csv", np.eye(3))
    code = main(["factorize", path, "--kind", "nonneg", "--r", "2", "--restarts", "4"])
    assert code == EXIT_NOT_FOUND


#: A valid command line of each subcommand, to which a bad option is added.
SUBCOMMAND_ARGV = {
    "analyze": ["analyze", "op.json"],
    "factorize": ["factorize", "m.csv", "--kind", "nonneg"],
    "convert": ["convert", "m.csv", "--kind", "sqrt"],
    "experiment": ["experiment", "bounds"],
}


def registered(option):
    """The subcommands whose parser registers ``option``."""
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(SUBCOMMAND_ARGV)
    return [name for name, p in subparsers.choices.items() if option in p._option_string_actions]


#: A negative seed reached numpy's generator, whose traceback ended the
#: command with exit 1; a negative budget refused every sign walk.
NEGATIVE_SEED_AND_BUDGET = [
    (command, option, value)
    for option in ("--seed", "--budget")
    for command in registered(option)
    for value in ("-1", "-5")
]


@pytest.mark.parametrize(
    "argv,message",
    [
        *(([*SUBCOMMAND_ARGV[c], o, v], f"argument {o}: expected an integer >= 0, got {v}")
          for c, o, v in NEGATIVE_SEED_AND_BUDGET),
        (["factorize", "m.csv", "--kind", "nonneg", "--restarts", "-3"], "expected an integer >= 0"),
        (["convert", "m.csv", "--kind", "cp", "--restarts", "-1"], "expected an integer >= 0"),
        (["analyze", "op.json", "--restarts", "-1"], "expected an integer >= 0"),
        (["experiment", "bounds", "--count", "-2"], "expected an integer >= 0"),
        (["experiment", "tgon", "--t", "5..3"], "expected a range lo..hi with hi >= lo, got 5..3"),
        (["experiment", "wstate", "--n", "4..3"], "expected a range lo..hi with hi >= lo, got 4..3"),
    ],
    ids=[*(f"{c}-{o[2:]}{v}" for c, o, v in NEGATIVE_SEED_AND_BUDGET),
         "factorize-restarts", "convert-restarts", "analyze-restarts", "bounds-count", "tgon-reversed-range",
         "wstate-reversed-range"],
)
def test_negative_counts_are_refused_at_parse_time(tmp_path, capsys, argv, message):
    write_json_matrix(tmp_path / "op.json", np.eye(4))
    write_csv_matrix(tmp_path / "m.csv", np.eye(3))
    argv = [str(tmp_path / a) if a in ("m.csv", "op.json") else a for a in argv]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_zero_counts_are_accepted(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "m.csv", np.ones((3, 3)))
    code, doc = run_json(capsys, ["factorize", path, "--kind", "nonneg", "--restarts", "0", "--json"])
    assert code == EXIT_NOT_FOUND
    assert entry_named(doc, "certificate")["found"] is False
    code, doc = run_json(capsys, ["experiment", "bounds", "--count", "0", "--json"])
    assert code == EXIT_OK
    assert all(entry["instances"] == 0 for entry in doc["entries"])


def test_factorize_default_r_is_the_numerical_rank(tmp_path, capsys):
    # a rank-2 cp matrix plus 1e-13 * I: np.linalg.matrix_rank counts 5,
    # the package's relative rule counts 2, as the cp scan of convert does
    a = np.random.default_rng(14).uniform(0.2, 1.2, (5, 2))
    m = a @ a.T + 1e-13 * np.eye(5)
    assert np.linalg.matrix_rank(m) == 5
    path = write_csv_matrix(tmp_path / "m.csv", m)
    code, doc = run_json(capsys, ["factorize", path, "--kind", "cp", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "certificate")["inner_dim"] == 2
    code, doc = run_json(capsys, ["convert", path, "--kind", "cp", "--direction", "to-state", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "state_certificate")["inner_dim"] == 2


@pytest.mark.parametrize("kind", ["minimal", "symmetric", "cpsdt", "sqrt"])
def test_factorize_ranks_for_the_default_r_only_in_the_searches(tmp_path, capsys, monkeypatch, kind):
    # only nonnegative, psd and cp read r; the other kinds skip its SVD
    def refuse(*args, **kwargs):
        raise AssertionError("factorize ranked the input for an r it does not read")

    monkeypatch.setattr(cli, "numerical_rank", refuse)
    path = write_csv_matrix(tmp_path / "m.csv", [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    code, doc = run_json(capsys, ["factorize", path, "--kind", kind, "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "certificate")["found"] is True


def test_factorize_unknown_kind(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "m.csv", np.eye(2))
    code = main(["factorize", path, "--kind", "bogus"])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# convert


def test_convert_minimal_both_directions(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = write_csv_matrix(tmp_path / "m.csv", rng.uniform(0, 1, (4, 4)))
    code, doc = run_json(capsys, ["convert", path, "--kind", "i", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "correspondence")["verdict"] == "exact-match"


def test_convert_psd_certificate_roundtrip(tmp_path, capsys):
    path = write_json_matrix(tmp_path / "m.json", np.eye(2))
    code, doc = run_json(capsys, ["factorize", path, "--kind", "psd", "--r", "2", "--json"])
    assert code == EXIT_OK
    cert_doc = entry_named(doc, "certificate")["payload"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert_doc))
    code, doc = run_json(capsys, ["convert", str(cert_path), "--kind", "iii", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "state_certificate")["inner_dim"] == 2
    assert entry_named(doc, "round_trip")["inner_dim"] == 2


@pytest.mark.parametrize("kind", ["minimal", "symmetric", "cpsdt", "sqrt"])
def test_convert_reads_a_certificate_of_inner_dim_zero(tmp_path, capsys, kind):
    # the (0, q) and (0, 0) factors of the zero matrix encode as [], which
    # carries no shape; the kind, inner dimension and matrix supply it
    path = write_csv_matrix(tmp_path / "zero.csv", np.zeros((2, 2)))
    code, doc = run_json(capsys, ["factorize", path, "--kind", kind, "--json"])
    assert code == EXIT_OK
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(entry_named(doc, "certificate")["payload"]))
    code, doc = run_json(capsys, ["convert", str(cert_path), "--kind", kind, "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "state_certificate")["inner_dim"] == 0
    assert entry_named(doc, "round_trip")["inner_dim"] == 0


def test_convert_symmetric_kind_rejects_asymmetric(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "m.csv", [[0, 1], [2, 0]])
    code = main(["convert", path, "--kind", "iv"])
    assert code == EXIT_USAGE


def test_convert_rejects_non_diagonal_operator(tmp_path, capsys):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1.0 / np.sqrt(2)
    path = write_json_matrix(tmp_path / "op.json", np.outer(phi, phi))
    code = main(["convert", path, "--kind", "i", "--sites", "2,2"])
    assert code == EXIT_USAGE


def test_convert_rejects_operator_analyze_calls_non_diagonal(tmp_path, capsys):
    # the operator of test_analyze_diagonal_flag_agrees_with_exact: analyze
    # reports diagonal: false, so convert must not read a matrix off it
    rho = np.diag([1.0, 2.0, 3.0, 4.0])
    rho[0, 3] = rho[3, 0] = 2e-11 * np.linalg.norm(rho) / np.sqrt(2)
    path = write_json_matrix(tmp_path / "near.json", rho)
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2", "--json"])
    assert entry_named(doc, "diagonal")["value"] is False
    code = main(["convert", path, "--kind", "minimal", "--sites", "2,2", "--json"])
    assert code == EXIT_USAGE
    assert "not diagonal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "op.json", "--sites", "3,3"],
        ["convert", "m.csv", "--kind", "nonneg", "--direction", "to-state"],
        ["convert", "m.csv", "--kind", "nonneg", "--direction", "both"],
        ["factorize", "m.csv", "--kind", "nonneg", "--r", "2"],
    ],
    ids=["analyze", "convert-to-state", "convert-both", "factorize"],
)
def test_restarts_reaches_the_nonneg_search(tmp_path, capsys, monkeypatch, argv):
    from mpdo_kit import cli, nonneg_factorizations

    seen = []
    search = nonneg_factorizations.nonneg_factorization_search

    def recording(matrix, r, restarts=50, seed=0):
        seen.append(restarts)
        return search(matrix, r, restarts, seed=seed)

    monkeypatch.setattr(nonneg_factorizations, "nonneg_factorization_search", recording)
    monkeypatch.setattr(cli, "nonneg_factorization_search", recording)
    # rank 2 < 3, so every scan runs the search at r = 2
    m = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]) @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    write_csv_matrix(tmp_path / "m.csv", m)
    write_json_matrix(tmp_path / "op.json", np.diag(m.ravel()))
    argv = [str(tmp_path / a) if a in ("m.csv", "op.json") else a for a in argv]
    main(argv + ["--restarts", "7", "--json"])
    capsys.readouterr()
    assert seen and set(seen) == {7}


@pytest.mark.parametrize(
    "matrix, condition", [([[1, 2], [3, 4]], "not symmetric"), ([[0, 1], [1, 0]], "not psd")], ids=["asymmetric", "non-psd"]
)
def test_cp_preconditions_are_the_search_rejections(tmp_path, capsys, matrix, condition):
    # the cp producer checks its own preconditions: factorize and convert
    # --direction to-state reject, and convert --direction both skips
    path = write_csv_matrix(tmp_path / "m.csv", matrix)
    for argv in (["factorize", path, "--kind", "cp"], ["convert", path, "--kind", "cp", "--direction", "to-state"]):
        assert main(argv) == EXIT_REJECTED
        assert f"rejected: {condition}" in capsys.readouterr().err
    code, doc = run_json(capsys, ["convert", path, "--kind", "cp", "--json"])
    assert code == EXIT_OK
    entry = entry_named(doc, "correspondence")
    assert (entry["verdict"], entry["note"]) == ("skipped", f"no cp factorization: {condition}")


def test_convert_cp_to_state_rejects_a_non_psd_matrix(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "flip.csv", np.array([[0.0, 1.0], [1.0, 0.0]]))
    code = main(["convert", path, "--kind", "cp", "--direction", "to-state"])
    assert code == EXIT_REJECTED
    assert "not psd" in capsys.readouterr().err


#: Doubly nonnegative but not completely positive: its support is a 5-cycle,
#: a triangle-free graph, on which a doubly nonnegative matrix is cp exactly
#: when its comparison matrix is psd (Drew, Johnson and Loewy 1994), and
#: this one's is not.  So every cp scan of it comes back empty.
NOT_CP = np.array(
    [[1, 1, 0, 0, 1], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, 2, 1], [1, 0, 0, 1, 6]], dtype=float
)


def test_a_cp_scan_of_a_matrix_that_is_not_cp_finds_nothing():
    assert np.linalg.eigvalsh(NOT_CP).min() > 0.07
    comparison = 2 * np.diag(np.diag(NOT_CP)) - NOT_CP
    assert np.linalg.eigvalsh(comparison).min() < -0.02
    assert scan_cp_certificate(NOT_CP) is None
    entry = verify_correspondence("cp", NOT_CP)
    assert entry == {"kind": "cp", "verdict": "skipped", "note": "search exhausted without a certificate"}


@pytest.mark.parametrize("direction", ["to-state", "to-matrix", "both"])
def test_convert_of_a_matrix_with_no_cp_certificate(tmp_path, capsys, direction):
    # a search that finds nothing exits 1; --direction both reports the skip
    path = write_json_matrix(tmp_path / "m.json", NOT_CP)
    code, doc = run_json(capsys, ["convert", path, "--kind", "cp", "--direction", direction, "--json"])
    if direction == "both":
        assert code == EXIT_OK
        assert doc["entries"] == [
            {"name": "correspondence", "note": "search exhausted without a certificate", "verdict": "skipped"}
        ]
    else:
        assert code == EXIT_NOT_FOUND
        assert doc["entries"] == [{"found": False, "name": "state_certificate"}]


@pytest.mark.parametrize(
    "argv, matrix, message",
    [
        (["analyze"], np.ones((2, 3)), "analyze needs a square operator, got (2, 3)"),
        (["analyze"], np.eye(3), "cannot infer site dimensions for side 3; pass --sites"),
        (["factorize", "--kind", "minimal"], np.eye(2) + 1j, "factorize expects a real nonnegative matrix"),
        (["convert", "--kind", "minimal", "--sites", "2,2,2"], np.eye(8), "conversion works on bipartite operators"),
        (["convert", "--kind", "minimal"], np.eye(2) + 1j, "matrix input must be real; pass --sites for operator input"),
    ],
    ids=["analyze-not-square", "analyze-no-sites", "factorize-complex", "convert-three-sites", "convert-complex"],
)
def test_command_usage_error(tmp_path, capsys, argv, matrix, message):
    path = write_json_matrix(tmp_path / "m.json", matrix)
    assert main([argv[0], path, *argv[1:]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


def test_convert_operator_to_matrix(tmp_path, capsys):
    path = write_json_matrix(tmp_path / "op.json", np.diag([1.0, 2.0, 3.0, 4.0]))
    code, doc = run_json(
        capsys,
        ["convert", path, "--kind", "i", "--sites", "2,2", "--direction", "to-matrix", "--json"],
    )
    assert code == EXIT_OK
    assert entry_named(doc, "matrix_certificate")["inner_dim"] == 2


# ---------------------------------------------------------------------------
# experiments and determinism


def test_experiment_wstate(capsys):
    code, doc = run_json(capsys, ["experiment", "wstate", "--n", "4..6", "--json"])
    assert code == EXIT_OK
    for n in (4, 5, 6):
        entry = entry_named(doc, f"n={n}")
        assert entry["cyclic_residual"] <= 1e-12
        assert entry["periodicity_holds"] is True
        assert entry["ti_bond_lower_bound"] == int(np.ceil(np.sqrt(n)))


def test_experiment_tgon(capsys):
    # the rank read by numerical_rank is the minimal factorization's
    code, doc = run_json(capsys, ["experiment", "tgon", "--t", "3..50", "--json"])
    assert code == EXIT_OK
    for t, entry in zip(range(3, 51), doc["entries"], strict=True):
        rank = minimal_factorization(slack_matrix_tgon(t).entries).inner_dim
        assert (entry["name"], entry["rank"], entry["psd_rank_lower"]) == (f"t={t}", rank, 2)
        assert rank == 3


def test_experiment_mixedw(capsys):
    code, doc = run_json(capsys, ["experiment", "mixedw", "--n", "2..4", "--json"])
    assert code == EXIT_OK
    for entry in doc["entries"]:
        assert entry["sep_inner_dim"] == 2
        assert entry["sep_residual"] <= 1e-10
        assert entry["periodicity_holds"] is True


def test_experiment_bounds(capsys):
    code, doc = run_json(capsys, ["experiment", "bounds", "--count", "10", "--json"])
    assert code == EXIT_OK
    assert all(entry["violations"] == 0 for entry in doc["entries"])


def schmidt_ranks(*ranks):
    """A stand-in for ``operator_schmidt_rank`` reading the given ranks in a cycle.

    ``experiment bounds`` asks for four ranks per instance: rho, tau,
    rho + tau and rho tau.
    """
    cycle = itertools.cycle(ranks)
    return lambda *args, **kwargs: next(cycle)


#: Each counter of ``experiment bounds`` with the ``cli`` name, and a maker
#: of the stand-in for it, that breaks its inequality.
BROKEN_BOUNDS = {
    "subadditive": ("operator_schmidt_rank", lambda: schmidt_ranks(1, 1, 3, 1)),
    "submultiplicative": ("operator_schmidt_rank", lambda: schmidt_ranks(1, 1, 1, 2)),
    "purification_square": ("local_purification_spectral", lambda: lambda *a, **k: PurificationCertificate(None, 0, 0.0)),
    "dimension_cap": ("schmidt_rank_cap", lambda: lambda *a, **k: 0),
}


@pytest.mark.parametrize("counter", sorted(BROKEN_BOUNDS))
def test_experiment_bounds_counts_each_broken_inequality(capsys, monkeypatch, counter):
    name, make = BROKEN_BOUNDS[counter]
    monkeypatch.setattr(cli, name, make())
    code, doc = run_json(capsys, ["experiment", "bounds", "--count", "4", "--json"])
    assert code == EXIT_OK
    for entry in doc["entries"]:
        assert entry["instances"] == 4
        assert entry["violations"] == (4 if entry["name"] == counter else 0)


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "nope"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "tgon", "--tol", "0.5"],
        ["experiment", "tgon", "--restarts", "2"],
        ["experiment", "tgon", "--iters", "5"],
        ["factorize", "m.csv", "--kind", "nonneg", "--iters", "5"],
        ["experiment", "tgon", "--budget", "4"],
        ["analyze", "op.json", "--budget", "4"],
    ],
)
def test_subcommands_reject_options_they_do_not_read(tmp_path, capsys, argv):
    write_json_matrix(tmp_path / "op.json", np.eye(4))
    write_csv_matrix(tmp_path / "m.csv", np.eye(3))
    argv = [str(tmp_path / a) if a in ("m.csv", "op.json") else a for a in argv]
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reports_byte_identical_modulo_timestamp(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "m.csv", np.eye(3))
    docs = []
    for _ in range(2):
        code, doc = run_json(
            capsys, ["factorize", path, "--kind", "nonneg", "--r", "3", "--seed", "7", "--json"]
        )
        assert code == EXIT_OK
        doc.pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_searches_and_conversions_load_no_scipy(tmp_path):
    # the psd search, the cp search and the cp round trip
    # run in a fresh interpreter; none of them may pull in any scipy module
    import mpdo_kit

    rng = np.random.default_rng(31)
    g = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    e = g @ g.conj().transpose(0, 2, 1)
    psd = write_csv_matrix(tmp_path / "psd.csv", np.einsum("iab,jab->ij", e[:4], e[4:]).real)
    a = rng.uniform(0.2, 1.2, (5, 3))
    cp = write_csv_matrix(tmp_path / "cp.csv", a @ a.T)
    argvs = [
        ["factorize", psd, "--kind", "psd", "--r", "2", "--json"],
        ["factorize", cp, "--kind", "cp", "--r", "3", "--json"],
        ["convert", cp, "--kind", "cp", "--direction", "both", "--json"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from mpdo_kit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')]))\n"
    )
    src = str(Path(mpdo_kit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == [[EXIT_OK] * 3, []]


def test_missing_file_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/file.json"]) == EXIT_USAGE


def test_console_entry_point_runs(tmp_path, capsys):
    # the W family used by the experiment is importable and consistent
    fam = w_state_generators(3)
    assert fam.cyclic_site.bond_dim == 6


@pytest.mark.parametrize("kind", ["cp", "psd"])
def test_factorize_certifies_the_zero_matrix(tmp_path, capsys, kind):
    path = write_csv_matrix(tmp_path / "zero.csv", np.zeros((3, 3)))
    code, doc = run_json(capsys, ["factorize", path, "--kind", kind, "--r", "1", "--json"])
    assert code == EXIT_OK
    cert = entry_named(doc, "certificate")
    assert cert["found"] is True
    assert cert["residual"] == 0.0


@pytest.mark.parametrize("kind", ["sqrt", "cpsdt", "minimal"])
def test_factorize_tol_reaches_every_exact_route(tmp_path, capsys, kind):
    path = write_csv_matrix(tmp_path / "m.csv", [[1.0, 1.0], [1.0, 1.2]])
    inner = {}
    for tol in ("1e-10", "0.2"):
        code, doc = run_json(capsys, ["factorize", path, "--kind", kind, "--tol", tol, "--json"])
        assert code == EXIT_OK
        inner[tol] = entry_named(doc, "certificate")["inner_dim"]
    assert inner == {"1e-10": 2, "0.2": 1}


@pytest.mark.parametrize("kind", ["minimal", "psd", "symmetric", "cpsdt", "sqrt"])
def test_convert_tol_reaches_every_exact_route(tmp_path, capsys, kind):
    path = write_csv_matrix(tmp_path / "m.csv", [[1.0, 1.0], [1.0, 1.2]])
    argv = ["convert", path, "--kind", kind, "--direction", "to-state", "--tol", "0.2", "--json"]
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert entry_named(doc, "state_certificate")["inner_dim"] == 1


def test_convert_to_matrix_reads_the_root_rank_at_tol(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "m.csv", [[1.0, 1.0], [1.0, 1.2]])
    argv = ["convert", path, "--kind", "sqrt", "--direction", "to-matrix", "--tol", "0.2", "--json"]
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert entry_named(doc, "state_certificate")["inner_dim"] == 1
    assert entry_named(doc, "matrix_certificate")["inner_dim"] == 1


@pytest.mark.parametrize("kind", ["nonneg", "cp"])
def test_convert_scans_start_at_the_rank_at_tol(tmp_path, capsys, kind):
    # rank 3 at the default tolerance and rank 1 at 1e-6, where the r = 1
    # search meets its bar: the perturbation is far below 1e-6 of max|M|
    u = np.array([1.0, 2.0, 3.0])
    path = write_csv_matrix(tmp_path / "m.csv", np.outer(u, u) + 1e-8 * np.eye(3))
    inner = {}
    for tol in ("1e-10", "1e-6"):
        argv = ["convert", path, "--kind", kind, "--direction", "to-state", "--tol", tol, "--json"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        inner[tol] = entry_named(doc, "state_certificate")["inner_dim"]
    assert inner == {"1e-10": 3, "1e-6": 1}


#: At --tol 0.2 the rank is 1: the minimal train truncates and misses sigma,
#: while the root keeps every entry and reproduces it.
VERDICT_AT_TOL = {"minimal": "violation", "sqrt": "exact-match"}


@pytest.mark.parametrize("kind", ["minimal", "sqrt"])
def test_convert_both_ranks_at_tol(tmp_path, capsys, kind):
    path = write_csv_matrix(tmp_path / "m.csv", [[1.0, 1.0], [1.0, 1.2]])
    code, doc = run_json(capsys, ["convert", path, "--kind", kind, "--tol", "0.2", "--json"])
    assert code == EXIT_OK
    entry = entry_named(doc, "correspondence")
    assert entry["matrix_side"] == entry["state_side"] == 1
    assert entry["verdict"] == VERDICT_AT_TOL[kind]


def test_convert_parses_a_json_matrix_once(tmp_path, capsys, monkeypatch):
    path = write_json_matrix(tmp_path / "m.json", [[1.0, 2.0], [3.0, 4.0]])
    calls = []
    read_input = cli._read_input

    def counting(*args, **kwargs):
        calls.append(1)
        return read_input(*args, **kwargs)

    monkeypatch.setattr(cli, "_read_input", counting)
    code = main(["convert", path, "--kind", "minimal", "--direction", "to-state", "--json"])
    monkeypatch.undo()
    assert code == EXIT_OK
    assert len(calls) == 1
    assert entry_named(json.loads(capsys.readouterr().out), "state_certificate")["inner_dim"] == 2
