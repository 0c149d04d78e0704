import json

import numpy as np
import pytest

from mpdo_kit.cli import (
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    InputError,
    load_matrix,
    main,
)
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


def test_missing_file_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/file.json"]) == EXIT_USAGE


def test_console_entry_point_runs(tmp_path, capsys):
    # the W family used by the experiment is importable and consistent
    fam = w_state_generators(3)
    assert fam.cyclic_site.bond_dim == 6
