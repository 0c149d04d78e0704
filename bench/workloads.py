"""Seeded inputs and command lists of the three benchmark workloads.

Each workload function writes its input files into a work directory,
computes the checker's references from the same in-memory matrices, and
returns the commands of one pass.  The same seed gives the same files, byte for byte.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its expected exit code and the check of its report."""

    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], None]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _write_csv(path: Path, m) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(m, dtype=float):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    return str(path)


def _write_json(path: Path, m) -> str:
    """Dense JSON matrix, complex entries as [re, im] pairs, written row by row."""
    m = np.asarray(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"rows": %d, "cols": %d, "data": [' % m.shape)
        for i, row in enumerate(m):
            cells = np.stack([row.real, row.imag], axis=-1) if np.iscomplexobj(m) else row
            fh.write(("," if i else "") + json.dumps(cells.tolist()))
        fh.write("]}\n")
    return str(path)


def _hermitian(x):
    return 0.5 * (x + x.conj().T)


def _sites(n: int) -> str:
    return ",".join(["2"] * n)


def _sparse(rng, shape, k: int):
    """Matrix with k nonzero entries in (0.25, 4) at seeded positions."""
    m = np.zeros(shape[0] * shape[1])
    m[rng.choice(m.size, k, replace=False)] = rng.uniform(0.25, 4.0, k)
    return m.reshape(shape)


def _symmetric_sparse(rng, d: int, k: int):
    """Symmetric d x d matrix with k nonzero upper-triangle (diagonal included) entries."""
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    m = np.zeros((d, d))
    for s in rng.choice(len(upper), k, replace=False):
        i, j = upper[s]
        m[i, j] = m[j, i] = rng.uniform(0.25, 4.0)
    return m


def _psd_pair_matrix(rng, p: int, q: int, r: int):
    """Planted psd factorization: M_ij = tr(E_i F_j^T) with random r x r psd E, F."""

    def psd():
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        return g @ g.conj().T

    e_list = [psd() for _ in range(p)]
    f_list = [psd() for _ in range(q)]
    return np.array([[np.sum(e * f).real for f in f_list] for e in e_list])


def chain(seed: int, work: Path) -> list[Command]:
    """Dense full-rank operators on n = 8 and 9 qubits plus the two chain experiments.

    n = 10 (one ~25 s command) is left out: a run could hold only one sample
    of it, and one sample does not hold steady from run to run.
    """
    rng = np.random.default_rng([seed, 1])
    cmds = []
    for n in (8, 9):
        d = 2**n
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = _hermitian(x @ x.conj().T / d)
        path = _write_json(work / f"chain_n{n}.json", rho)
        cmds.append(Command(("analyze", path, "--sites", _sites(n), "--json"), 0,
                            checks.analyze_check(rho, (2,) * n)))
    s = str(seed)
    cmds.append(Command(("experiment", "wstate", "--n", "3..10", "--seed", s, "--json"), 0,
                        checks.wstate_check(range(3, 11))))
    cmds.append(Command(("experiment", "mixedw", "--n", "2..8", "--seed", s, "--json"), 0,
                        checks.mixedw_check(range(2, 9))))
    return cmds


def enum(seed: int, work: Path) -> list[Command]:
    """Sign enumerations: square-root ranks, cpsdt roots and q-sqrt ranks."""
    rng = np.random.default_rng([seed, 2])
    s = str(seed)
    cmds = []
    sqrt_paths = {}
    for k in (14, 15):
        m = _sparse(rng, (5, 5), k)
        sqrt_paths[k] = (_write_csv(work / f"sqrt_k{k}.csv", m), m)
        cmds.append(Command(("factorize", sqrt_paths[k][0], "--kind", "sqrt", "--seed", s, "--json"), 0,
                            checks.factorize_check("hadamard-root", m)))
    path, m = sqrt_paths[14]
    cmds.append(Command(("convert", path, "--kind", "sqrt", "--direction", "both", "--seed", s, "--json"), 0,
                        checks.convert_check("hadamard-root", m)))
    # one cpsdt size: tracemalloc, which the traced run wraps around this call,
    # slows it about ninefold, and the run must stay within its time limit
    m = _symmetric_sparse(rng, 6, 16)
    path = _write_csv(work / "cpsdt_k16.csv", m)
    cmds.append(Command(("factorize", path, "--kind", "cpsdt", "--seed", s, "--json"), 0,
                        checks.factorize_check("cpsdt", m)))
    diag = np.zeros(256)
    diag[rng.choice(256, 14, replace=False)] = rng.uniform(0.25, 4.0, 14)
    rho = np.diag(diag)
    path = _write_json(work / "diag_n8.json", rho)
    cmds.append(Command(("analyze", path, "--sites", _sites(8), "--json"), 0,
                        checks.analyze_check(rho, (2,) * 8)))
    x = rng.standard_normal((32, 10)) + 1j * rng.standard_normal((32, 10))
    rho = _hermitian(x @ x.conj().T / 10)
    path = _write_json(work / "rank10_n5.json", rho)
    cmds.append(Command(("analyze", path, "--sites", _sites(5), "--json"), 0,
                        checks.analyze_check(rho, (2,) * 5)))
    return cmds


def search(seed: int, work: Path) -> list[Command]:
    """Restart searches at planted and provably infeasible inner dimensions, conversions,
    and the two small experiments."""
    rng = np.random.default_rng([seed, 3])
    s = str(seed)
    nn = rng.uniform(0.0, 1.0, (6, 3)) @ rng.uniform(0.0, 1.0, (3, 6))
    a = rng.uniform(0.0, 1.0, (6, 3))
    cp = a @ a.T
    ps = _psd_pair_matrix(rng, 5, 5, 2)
    files = {
        "nonnegative": (_write_csv(work / "planted_nonneg.csv", nn), nn),
        "cp": (_write_csv(work / "planted_cp.csv", cp), cp),
        "psd": (_write_csv(work / "planted_psd.csv", ps), ps),
    }
    cmds = []
    for kind, (path, m) in files.items():
        rk = checks.rank(m)
        for r in (2, 1) if kind == "psd" else (3, 2):
            infeasible = r * r < rk if kind == "psd" else r < rk
            check = checks.not_found_check(kind, r) if infeasible else checks.factorize_check(kind, m, r)
            cmds.append(Command(("factorize", path, "--kind", kind, "--r", str(r), "--seed", s, "--json"),
                                1 if infeasible else 0, check))
    for kind, src in (("minimal", "nonnegative"), ("psd", "psd"), ("symmetric", "cp"), ("cp", "cp")):
        path, m = files[src]
        cmds.append(Command(("convert", path, "--kind", kind, "--direction", "both", "--seed", s, "--json"), 0,
                            checks.convert_check(kind, m)))
    # --direction both grades a nonnegative certificate against the exact 1e-8
    # residual bar, which a multiplicative-update certificate never meets; the
    # round trip below loads the same conversion layers and is checked here.
    path, m = files["nonnegative"]
    cmds.append(Command(("convert", path, "--kind", "nonneg", "--direction", "to-matrix", "--seed", s, "--json"), 0,
                        checks.convert_check("nonnegative", m)))
    cmds.append(Command(("experiment", "tgon", "--t", "3..50", "--seed", s, "--json"), 0,
                        checks.tgon_check(range(3, 51))))
    cmds.append(Command(("experiment", "bounds", "--count", "200", "--seed", s, "--json"), 0,
                        checks.bounds_check(200)))
    return cmds


WORKLOADS = {"chain": chain, "enum": enum, "search": search}
