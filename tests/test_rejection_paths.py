"""Inputs the constructors and entry points refuse, each with its exception type and message.

One case per rejection that no other test reaches: the site, operator,
train and cyclic-tensor constructors, the cyclic and W-state builders, the
signs of a square root, the bridge's converters, and the text report's
stand-in for an inline payload.
"""

import re

import numpy as np
import pytest

from mpdo_kit.certificates import FactorCertificate
from mpdo_kit.cli import EXIT_OK, main
from mpdo_kit.correspondence import DiagBipartite, decomposition_to_factorization, factorization_to_decomposition
from mpdo_kit.decompositions import (
    SeparableCertificate,
    SignVector,
    make_translation_invariant,
    mixed_w_generator,
    periodicity_lower_bound,
    purification_from_separable,
    w_state_generators,
)
from mpdo_kit.tensor_core import (
    MpoTrain,
    PsdOperator,
    SiteSpec,
    TiSiteTensor,
    UsageError,
    contract_cyclic,
    cyclic_shift_defect,
)


def cores(*shapes):
    return tuple(np.ones(shape) for shape in shapes)


#: A two-site train whose sites differ: out dims (1, 2).
UNEVEN_TRAIN = MpoTrain(cores((1, 1, 1, 1), (1, 2, 1, 1)))

#: A one-site separable certificate whose core is 2 x 3 on the physical legs.
NON_SQUARE_SEPARABLE = SeparableCertificate(MpoTrain(cores((1, 2, 3, 1))), 1, 0.0)

SITE = TiSiteTensor(np.ones((1, 2, 2, 1)))

REJECTIONS = {
    "site-spec-empty": (lambda: SiteSpec(()), "need at least one site"),
    "site-spec-zero-dim": (lambda: SiteSpec((2, 0)), "site dimensions must be >= 1, got (2, 0)"),
    "operator-not-square": (
        lambda: PsdOperator(SiteSpec((2,)), np.ones((2, 3))),
        "operator must be a square matrix, got shape (2, 3)",
    ),
    "train-no-cores": (lambda: MpoTrain(()), "train needs at least one core"),
    "train-three-legs": (lambda: MpoTrain(cores((1, 2, 1))), "cores must have 4 legs, got shape (1, 2, 1)"),
    "site-tensor-three-legs": (
        lambda: TiSiteTensor(np.ones((1, 2, 2))),
        "site tensor must have 4 legs, got shape (1, 2, 2)",
    ),
    "site-tensor-uneven-bonds": (lambda: TiSiteTensor(np.ones((1, 2, 2, 2))), "bond legs must match, got 1 vs 2"),
    "contract-cyclic-n0": (lambda: contract_cyclic(SITE, 0), "n must be >= 1, got 0"),
    "shift-defect-uneven-dims": (
        lambda: cyclic_shift_defect(np.eye(2), (1, 2), (1, 2)),
        "shift defect requires equal dimensions on every site",
    ),
    "sign-vector-zero": (lambda: SignVector((1, 0)), "signs must be +-1"),
    "separable-non-square-core": (
        lambda: purification_from_separable(NON_SQUARE_SEPARABLE),
        "separable cores must be square on the physical legs",
    ),
    "fold-uneven-dims": (
        lambda: make_translation_invariant(UNEVEN_TRAIN),
        "translation invariance needs equal dimensions on every site",
    ),
    "periodicity-n0": (lambda: periodicity_lower_bound(SITE, 0), "n must be >= 1, got 0"),
    "w-state-n1": (lambda: w_state_generators(1), "W state needs n >= 2, got 1"),
    "mixed-w-n1": (lambda: mixed_w_generator(1), "need n >= 2, got 1"),
    "symmetric-kind-asymmetric-matrix": (
        lambda: factorization_to_decomposition(
            "symmetric",
            FactorCertificate("symmetric", 1, {"factor": np.ones((2, 1))}, 0.0),
            DiagBipartite(np.array([[1.0, 2.0], [3.0, 4.0]])),
        ),
        "symmetric kinds need a square symmetric matrix",
    ),
    "read-back-no-train": (
        lambda: decomposition_to_factorization("minimal", np.eye(4)),
        "expected a train-backed decomposition, got ndarray",
    ),
    "read-back-three-sites": (
        lambda: decomposition_to_factorization("minimal", MpoTrain(cores(*[(1, 1, 1, 1)] * 3))),
        "conversion needs a two-site decomposition, got 3 sites",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_raises_a_usage_error_with_its_message(case):
    call, message = REJECTIONS[case]
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call()


def test_text_report_stands_in_for_the_payload(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    assert main(["factorize", str(path), "--kind", "minimal"]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    assert line.startswith("certificate: found=True kind=minimal inner_dim=2 ")
    assert line.endswith(" payload=<inline in --json>")
