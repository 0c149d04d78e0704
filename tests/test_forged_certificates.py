"""Forged certificates: each reconstructs its matrix but is not what its kind says.

Every forgery here reproduces the matrix through the checker's own
reconstruction, or would under a broadcast or a dropped imaginary part, so
only the kind-specific feasibility tests can catch it.  A tooling guard
keeps the checker's own code out of the producer modules.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mpdo_kit import certificates
from mpdo_kit.certificates import (
    HERMITIAN_TOL,
    FactorCertificate,
    check_factor_certificate,
    pair_traces,
)
from mpdo_kit.cli import EXIT_USAGE, main
from mpdo_kit.decompositions import SeparableCertificate
from mpdo_kit.tensor_core import MpoTrain

#: Antisymmetric 2 x 2 block: it adds nothing to the Hermitian part, and
#: tr(K D^T) = 0 for every diagonal D.
SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_nonnegative_factors_with_imaginary_parts_are_rejected():
    # (1j)(-1j) = 1: purely imaginary "nonnegative" factors of the all-ones
    # matrix; their real parts (all zero) pass a real-part sign test
    left = np.array([[1j], [1j]])
    right = np.array([[-1j, -1j]])
    m = np.ones((2, 2))
    assert np.array_equal((left @ right).real, m)
    cert = FactorCertificate("nonnegative", 1, {"left": left, "right": right}, 0.0)
    with pytest.raises(ValueError, match="must be real"):
        check_factor_certificate(m, cert)


def test_nonnegative_complex_dtype_with_zero_imaginary_part_passes():
    left = np.ones((2, 1), dtype=complex)
    right = np.ones((1, 2), dtype=complex)
    cert = FactorCertificate("nonnegative", 1, {"left": left, "right": right}, 0.0)
    check_factor_certificate(np.ones((2, 2)), cert)


def test_non_hermitian_psd_payload_is_rejected():
    # E_0 = diag(1, 0) + K has Hermitian part diag(1, 0), which is psd, and
    # the skew part drops out of every pairing with the diagonal F
    e = [np.diag([1.0, 0.0]) + SKEW, np.diag([0.0, 1.0])]
    f = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    m = pair_traces(e, f)
    assert np.array_equal(m, np.eye(2))
    cert = FactorCertificate("psd", 2, {"E": e, "F": f}, 0.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_factor_certificate(m, cert)


def test_non_hermitian_cpsdt_payload_is_rejected():
    e = [np.diag([1.0, 0.0]) + SKEW, np.diag([0.0, 1.0])]
    m = pair_traces(e, e)
    assert np.array_equal(m, np.diag([3.0, 1.0]))
    cert = FactorCertificate("cpsdt", 2, {"E": e}, 0.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_factor_certificate(m, cert)


def test_round_off_level_hermiticity_defect_passes():
    e = [np.diag([1.0, 0.0]) + 0.1 * HERMITIAN_TOL * SKEW, np.diag([0.0, 1.0])]
    f = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    check_factor_certificate(pair_traces(e, f), FactorCertificate("psd", 2, {"E": e, "F": f}, 0.0))


def test_separable_certificate_with_non_hermitian_core_has_a_defect():
    # core slice [[1, 1], [-1, 1]] has Hermitian part I, whose spectrum
    # alone reports no psd defect
    core1 = np.zeros((1, 2, 2, 1), dtype=complex)
    core1[0, :, :, 0] = np.eye(2) + SKEW
    core2 = np.eye(2, dtype=complex).reshape(1, 2, 2, 1)
    cert = SeparableCertificate(MpoTrain((core1, core2)), 1, 0.0)
    assert cert.psd_defect() == 2.0


def test_hadamard_root_rank_over_claim_is_rejected():
    # the second singular value, 1e-9 of the first, is above the relative
    # rule's 1e-10 cutoff: the root has rank 2 however small it looks
    root = np.diag([1.0, 1e-9])
    cert = FactorCertificate("hadamard-root", 1, {"root": root, "signs": np.sign(root).astype(int)}, 0.0)
    with pytest.raises(ValueError, match="root has rank 2, certificate claims 1"):
        check_factor_certificate(root * root, cert)


#: Each payload reconstructs its matrix (the all-ones matrix, or I for the
#: psd kinds) but claims an inner dimension its factors do not have.
INNER_DIM_FORGERIES = {
    "minimal": (2, {"left": np.ones((2, 1)), "right": np.ones((1, 2))}, "inner dimension does not match the factors"),
    "nonnegative": (2, {"left": np.ones((2, 1)), "right": np.ones((1, 2))}, "inner dimension does not match the factors"),
    "symmetric": (2, {"factor": np.ones((2, 1))}, "inner dimension does not match the factor"),
    "cp": (2, {"factor": np.ones((2, 1))}, "inner dimension does not match the factor"),
    "psd": (3, {"E": [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], "F": [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]},
            "psd factor size does not match inner dimension"),
    "cpsdt": (1, {"E": [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]}, "psd factor size does not match inner dimension"),
}


@pytest.mark.parametrize("kind", sorted(INNER_DIM_FORGERIES))
def test_inner_dimension_the_factors_do_not_have_is_rejected(kind):
    inner_dim, payload, message = INNER_DIM_FORGERIES[kind]
    m = np.eye(2) if "E" in payload else np.ones((2, 2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_factor_certificate(m, FactorCertificate(kind, inner_dim, payload, 0.0))


def test_minimal_factors_with_an_imaginary_product_are_rejected():
    # the product [[1, 1j], [1, 1j]] has real part M: a real-part comparison accepts it
    left = np.array([[1.0], [1.0]])
    right = np.array([[1.0, 1j]])
    m = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal((left @ right).real, m)
    cert = FactorCertificate("minimal", 1, {"left": left, "right": right}, 0.0)
    with pytest.raises(ValueError, match="material imaginary part"):
        check_factor_certificate(m, cert)


def test_symmetric_factor_with_an_imaginary_product_is_rejected():
    # A A^T = [[1, 1j], [1j, 0]]: real part diag(1, 0)
    a = np.array([[1.0, 0.0], [1j, 1.0]])
    m = np.diag([1.0, 0.0])
    assert np.array_equal((a @ a.T).real, m)
    cert = FactorCertificate("symmetric", 2, {"factor": a}, 0.0)
    with pytest.raises(ValueError, match="material imaginary part"):
        check_factor_certificate(m, cert)


def test_complex_cp_factor_is_rejected():
    # its real part alone rebuilds M
    a = np.array([[1.0 + 1j], [1.0 - 1j]])
    m = np.ones((2, 2))
    assert np.array_equal(a.real @ a.real.T, m)
    cert = FactorCertificate("cp", 1, {"factor": a}, 0.0)
    with pytest.raises(ValueError, match="must be real"):
        check_factor_certificate(m, cert)


def test_negative_cp_factor_is_rejected():
    # -a is a symmetric factor of the same M, but not a nonnegative one
    a = -np.ones((2, 1))
    m = np.ones((2, 2))
    assert np.array_equal(a @ a.T, m)
    cert = FactorCertificate("cp", 1, {"factor": a}, 0.0)
    with pytest.raises(ValueError, match="not entrywise nonnegative"):
        check_factor_certificate(m, cert)


# ---------------------------------------------------------------------------
# forged certificate documents: ``convert`` refuses each with a usage error
# that names the field


#: ``factorize --json`` payloads of M = [[1, 2], [2, 4]]: minimal M = l r,
#: and psd M_ij = tr(E_i F_j^T) at inner dimension 1.
MINIMAL_DOC = {
    "kind": "minimal",
    "inner_dim": 1,
    "residual": 0.0,
    "payload": {"left": [[1.0], [2.0]], "right": [[1.0, 2.0]]},
    "matrix": [[1.0, 2.0], [2.0, 4.0]],
}
PSD_DOC = {
    "kind": "psd",
    "inner_dim": 1,
    "residual": 0.0,
    "payload": {"E": [[[1.0]], [[2.0]]], "F": [[[1.0]], [[2.0]]]},
    "matrix": [[1.0, 2.0], [2.0, 4.0]],
}


def forged(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (forged(MINIMAL_DOC, lambda d: d.update(residual="0")), "field 'residual' must be a number, got '0'"),
        (forged(MINIMAL_DOC, lambda d: d.update(residual=True)), "field 'residual' must be a number, got True"),
        (forged(PSD_DOC, lambda d: d["payload"]["E"].pop()), "payload field 'E' must be a list of 2 matrices"),
        (forged(MINIMAL_DOC, lambda d: d["payload"].update(left=5)), "payload field 'left' must be a list of rows"),
        (
            forged(MINIMAL_DOC, lambda d: d["payload"]["left"].pop()),
            "payload field 'left' shape does not match rows=2 cols=1",
        ),
    ],
    ids=["residual-string", "residual-bool", "E-short", "left-not-a-list", "left-short-a-row"],
)
def test_forged_certificate_document_is_a_usage_error(tmp_path, capsys, doc, message):
    for original in (MINIMAL_DOC, PSD_DOC):  # the unforged documents convert
        (tmp_path / "cert.json").write_text(json.dumps(original))
        assert main(["convert", str(tmp_path / "cert.json"), "--kind", original["kind"]]) == 0
    capsys.readouterr()
    (tmp_path / "cert.json").write_text(json.dumps(doc))
    assert main(["convert", str(tmp_path / "cert.json"), "--kind", doc["kind"]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# reconstructions of the wrong shape, complex roots and the cpsdt root

#: Three equal rows [1, 2]: a one-row reconstruction broadcasts onto them.
EQUAL_ROWS = np.array([[1.0, 2.0]] * 3)

#: Per case: a kind, a matrix, a payload of inner dimension 1 whose
#: reconstruction is one of its rows or one of its entries (or has no
#: entries at all), and the reconstruction's shape.
SHAPE_FORGERIES = {
    "minimal": ("minimal", EQUAL_ROWS, {"left": np.ones((1, 1)), "right": np.array([[1.0, 2.0]])}, (1, 2)),
    "nonnegative": ("nonnegative", EQUAL_ROWS, {"left": np.ones((1, 1)), "right": np.array([[1.0, 2.0]])}, (1, 2)),
    "psd": ("psd", EQUAL_ROWS, {"E": [np.ones((1, 1))], "F": [np.ones((1, 1)), 2 * np.ones((1, 1))]}, (1, 2)),
    "psd-no-E": ("psd", EQUAL_ROWS, {"E": [], "F": [np.ones((1, 1)), 2 * np.ones((1, 1))]}, (0, 2)),
    "symmetric": ("symmetric", np.ones((4, 4)), {"factor": np.ones((1, 1))}, (1, 1)),
    "cp": ("cp", np.ones((4, 4)), {"factor": np.ones((1, 1))}, (1, 1)),
    "cpsdt": ("cpsdt", np.ones((4, 4)), {"E": [np.ones((1, 1))]}, (1, 1)),
    "cpsdt-no-E": ("cpsdt", np.ones((4, 4)), {"E": []}, (0, 0)),
    "hadamard-root": (
        "hadamard-root", np.ones((4, 4)), {"root": np.ones((1, 1)), "signs": np.ones((1, 1), dtype=int)}, (1, 1)
    ),
}


@pytest.mark.parametrize("case", sorted(SHAPE_FORGERIES))
def test_a_reconstruction_of_another_shape_is_rejected(case):
    kind, m, payload, shape = SHAPE_FORGERIES[case]
    message = f"certificate reconstruction has shape {shape}, the matrix has shape {m.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_factor_certificate(m, FactorCertificate(kind, 1, payload, 0.0))


def test_a_complex_hadamard_root_is_rejected():
    # its real part alone squares to M
    root = np.array([[1.0, 2.0], [3.0, 4.0]]) + 0.5j
    m = np.array([[1.0, 4.0], [9.0, 16.0]])
    cert = FactorCertificate("hadamard-root", 2, {"root": root, "signs": np.ones((2, 2), dtype=int)}, 0.0)
    with pytest.raises(ValueError, match="^hadamard root must be real$"):
        check_factor_certificate(m, cert)


#: cpsdt payloads whose E list reproduces M (all ones, or [[1]]) but whose root does not.
CPSDT_ROOT_FORGERIES = {
    "off": (np.ones((1, 1)), np.array([[-5.0]]), "root o root does not reconstruct the matrix"),
    "asymmetric": (np.ones((2, 2)), np.array([[1.0, -1.0], [1.0, 1.0]]), "cpsdt root is not symmetric"),
    "complex": (np.ones((2, 2)), np.array([[1.0, 1j], [1j, 1.0]]), "cpsdt root must be real"),
    "short": (np.ones((2, 2)), np.ones((1, 1)), "root o root reconstruction has shape (1, 1)"),
}


@pytest.mark.parametrize("case", sorted(CPSDT_ROOT_FORGERIES))
def test_a_cpsdt_root_that_is_not_a_symmetric_root_of_m_is_rejected(case):
    m, root, message = CPSDT_ROOT_FORGERIES[case]
    e_list = [np.ones((1, 1))] * len(m)
    check_factor_certificate(m, FactorCertificate("cpsdt", 1, {"E": e_list}, 0.0))  # the E list alone passes
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        check_factor_certificate(m, FactorCertificate("cpsdt", 1, {"E": e_list, "root": root}, 0.0))


def test_a_cpsdt_root_that_squares_to_m_passes():
    e_list = [np.ones((1, 1))] * 2
    root = np.array([[1.0, -1.0], [-1.0, 1.0]])
    check_factor_certificate(np.ones((2, 2)), FactorCertificate("cpsdt", 1, {"E": e_list, "root": root}, 0.0))


# ---------------------------------------------------------------------------
# the checker pairs traces with its own code


def test_a_broken_shared_pairing_cannot_pass_a_psd_forgery(monkeypatch):
    # tr(I I^T) = 2 for every pair, not M; a pairing that echoes M would pass it
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    e = [np.eye(2), np.eye(2)]
    monkeypatch.setattr(certificates, "pair_traces", lambda e_list, f_list: m)
    with pytest.raises(ValueError, match="^certificate does not reconstruct the matrix"):
        check_factor_certificate(m, FactorCertificate("psd", 2, {"E": e, "F": e}, 0.0))


@pytest.mark.parametrize("r", [1, 3])
def test_the_checkers_pairing_matches_pair_traces(r):
    # the same sums in another order: equal to a few roundings of each term
    rng = np.random.default_rng(r)
    g = rng.normal(size=(7, r, r)) + 1j * rng.normal(size=(7, r, r))
    e = g @ g.conj().swapaxes(1, 2)
    atol = 4 * r * r * np.finfo(float).eps * np.abs(e).max() ** 2
    np.testing.assert_allclose(certificates._trace_pairs(e[:3], e[3:], r), pair_traces(e[:3], e[3:]), rtol=0, atol=atol)


SRC = Path(__file__).resolve().parent.parent / "src" / "mpdo_kit"
CHECKER = "check_factor_certificate"


def checker_functions(source: str) -> set[str]:
    """Module-level functions the checker names, directly or through the module's private helpers."""
    defs = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), [CHECKER]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in reached | {CHECKER}:
                reached.add(node.id)
                if node.id.startswith("_"):
                    todo.append(node.id)
    return reached


def certificates_names(source: str) -> set[str]:
    """Names a module takes from ``certificates``: imported from it, or read as its attributes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "certificates":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "certificates":
            names.add(node.attr)
    return names


def shared_checker_functions(checker_source: str, others: dict[str, str]) -> dict[str, set[str]]:
    """Per other module, the checker's functions it takes from ``certificates``."""
    reach = checker_functions(checker_source)
    shared = {name: certificates_names(source) & reach for name, source in others.items()}
    return {name: names for name, names in shared.items() if names}


def test_shared_checker_functions_flags_a_helper_reached_through_a_private_one():
    checker = (
        "def shared(x):\n    return x\n"
        "def own(x):\n    return x\n"
        "def _helper(x):\n    return shared(x)\n"
        "def unused(x):\n    return x\n"
        "def check_factor_certificate(m, cert):\n    return _helper(m) + own(m)\n"
    )
    others = {
        "producer": "from .certificates import shared, unused\n",
        "attribute": "from . import certificates\ncertificates.shared(1)\n",
        "clean": "from .certificates import unused, check_factor_certificate\n",
    }
    assert shared_checker_functions(checker, others) == {"producer": {"shared"}, "attribute": {"shared"}}


def test_no_producer_module_shares_a_function_with_the_checker():
    others = {path.stem: path.read_text() for path in SRC.glob("*.py") if path.stem != "certificates"}
    assert shared_checker_functions((SRC / "certificates.py").read_text(), others) == {}
