import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from mpdo_kit.correspondence import _matrix_certificate
from mpdo_kit.decompositions import w_state_generators


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
    # rank 20 at the default tolerance, rank 1 at --tol 1e-3: the gate and
    # the enumeration count at the same tolerance, so the enumeration runs
    rho = np.diag([1.0] + [1e-4] * 19 + [0.0] * 12)
    path = write_json_matrix(tmp_path / "rho.json", rho)
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2,2,2,2", "--tol", "1e-3", "--json"])
    assert code == EXIT_OK
    assert entry_named(doc, "q_sqrt_rank")["value"] == 1
    code, doc = run_json(capsys, ["analyze", path, "--sites", "2,2,2,2,2", "--json"])
    assert code == EXIT_OK
    assert "q_sqrt_rank" not in [entry["name"] for entry in doc["entries"]]


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
        (["analyze", "eye4.csv", "--sites", "a,b"], None, "argument --sites"),
        (["experiment", "wstate", "--n", "3..x"], None, "argument --n"),
        (["experiment", "tgon", "--t", "5,,6"], None, "argument --t"),
    ],
    ids=[
        "data-number", "data-row-number", "rows-string", "cert-no-matrix", "cert-bogus-kind",
        "cert-no-left", "cert-row-misfit", "sites-letters", "n-bad-range", "t-empty-item",
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


def test_convert_cp_to_state_rejects_a_non_psd_matrix(tmp_path, capsys):
    path = write_csv_matrix(tmp_path / "flip.csv", np.array([[0.0, 1.0], [1.0, 0.0]]))
    code = main(["convert", path, "--kind", "cp", "--direction", "to-state"])
    assert code == EXIT_REJECTED
    assert "not psd" in capsys.readouterr().err


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
    code, doc = run_json(capsys, ["experiment", "tgon", "--t", "3..12", "--json"])
    assert code == EXIT_OK
    assert all(entry["rank"] == 3 for entry in doc["entries"])


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


@pytest.mark.parametrize("kind", ["minimal", "sqrt"])
def test_convert_both_ranks_at_tol(tmp_path, capsys, kind):
    path = write_csv_matrix(tmp_path / "m.csv", [[1.0, 1.0], [1.0, 1.2]])
    code, doc = run_json(capsys, ["convert", path, "--kind", kind, "--tol", "0.2", "--json"])
    assert code == EXIT_OK
    entry = entry_named(doc, "correspondence")
    assert entry["matrix_side"] == entry["state_side"] == 1
    assert entry["verdict"] == "exact-match"


def test_convert_parses_a_json_matrix_once(tmp_path, capsys, monkeypatch):
    path = write_json_matrix(tmp_path / "m.json", [[1.0, 2.0], [3.0, 4.0]])
    calls = []
    loads = json.loads

    def counting(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    code = main(["convert", path, "--kind", "minimal", "--direction", "to-state", "--json"])
    monkeypatch.undo()
    assert code == EXIT_OK
    assert len(calls) == 1
    assert entry_named(json.loads(capsys.readouterr().out), "state_certificate")["inner_dim"] == 2
