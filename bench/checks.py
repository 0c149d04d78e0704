"""Independent output checker for the benchmark.

Every reference here is computed by the benchmark itself with plain numpy:
operator Schmidt ranks from its own SVDs of the matricizations, square-root
ranks from its own batched sign enumerations, and certificate feasibility
and reconstruction from the JSON payloads the CLI printed.  Nothing is
imported from ``mpdo_kit``, so a bug in the package (including in its own
``check_factor_certificate``) cannot make a wrong report pass.

The tolerances mirror the package's documented conventions:

* ranks count singular values above ``RANK_TOL * sigma_max``;
* exact routes must rebuild M to ``EXACT_TOL * max|M|`` (max-abs);
* the heuristic searches accept at ``SEARCH_TOL * max|M|``, their
  documented acceptance bar, so their certificates are held to that;
* payload matrices of the psd kinds must be Hermitian to ``HERM_TOL`` and
  have no eigenvalue below ``-PSD_TOL * lambda_max``.
"""

from __future__ import annotations

import copy
from math import ceil, prod, sqrt

import numpy as np

RANK_TOL = 1e-10
EXACT_TOL = 1e-8
SEARCH_TOL = 1e-6
HERM_TOL = 1e-10
PSD_TOL = 1e-10
NONNEG_TOL = 1e-12

#: ``analyze`` enumerates q_sqrt_rank only up to this operator rank.
ENUM_RANK_CAP = 16

#: Sign patterns per batched SVD in the reference enumerations; small, so
#: that the checker's own memory peak stays below the program's.
CHUNK = 256


class Mismatch(Exception):
    """A report disagrees with the benchmark's own reference."""


def expect(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# reference math


def ranks(stack) -> np.ndarray:
    """Numerical rank of each matrix in a stack (0 for a zero matrix)."""
    s = np.linalg.svd(np.asarray(stack), compute_uv=False)
    return np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)


def rank(mat) -> int:
    return int(ranks(mat))


def realign(ops, dims, cut: int) -> np.ndarray:
    """Operators of shape (..., D, D) as (left sites) x (right sites) matrices."""
    ops = np.asarray(ops)
    lead = ops.shape[:-2]
    n = len(dims)
    t = ops.reshape(lead + tuple(dims) * 2)
    off = len(lead)
    left = [off + a for k in range(cut) for a in (k, n + k)]
    right = [off + a for k in range(cut, n) for a in (k, n + k)]
    t = t.transpose(list(range(off)) + left + right)
    return t.reshape(lead + (prod(dims[:cut]) ** 2, -1))


def osr_profile(op, dims) -> list[int]:
    """Matricization rank at each of the n-1 cuts of one operator."""
    return [rank(realign(op, dims, cut)) for cut in range(1, len(dims))]


def schmidt_cap(dims) -> int:
    """Largest smaller side over the cuts of a square operator on ``dims``."""
    return max(
        min(prod(dims[:cut]) ** 2, prod(dims[cut:]) ** 2) for cut in range(1, len(dims))
    )


def sign_patterns(k: int):
    """All sign vectors of length k with the first sign pinned to +1, in chunks.

    A global sign flip never changes a rank, so pinning loses no minimum.
    """
    total = 1 << max(k - 1, 0)
    shifts = np.arange(k - 2, -1, -1)
    for lo in range(0, total, CHUNK):
        idx = np.arange(lo, min(lo + CHUNK, total))
        bits = (idx[:, None] >> shifts) & 1
        yield np.concatenate([np.ones((idx.size, 1)), 1.0 - 2.0 * bits], axis=1)


def min_signed_rank(m, positions, symmetric: bool = False) -> int:
    """Least rank of a matrix with entries +-sqrt(m) at ``positions`` (zero elsewhere)."""
    m = np.asarray(m, dtype=float)
    rows = np.array([p[0] for p in positions])
    cols = np.array([p[1] for p in positions])
    base = np.sqrt(m[rows, cols])

    def chunk_ranks(signs):
        stack = np.zeros((signs.shape[0],) + m.shape)
        stack[:, rows, cols] = signs * base
        if symmetric:
            stack[:, cols, rows] = signs * base
        return ranks(stack)

    return min(int(chunk_ranks(signs).min()) for signs in sign_patterns(len(positions)))


def q_sqrt_diagonal(values, dims) -> int:
    """Least Schmidt rank over the sign choices of sqrt(diag(values)).

    For a diagonal operator diag(w), the matricization at a cut is the
    matrix w reshaped to (left dim, right dim), embedded among zero rows
    and columns, so its rank is the rank of that reshape.
    """
    values = np.asarray(values, dtype=float)
    keep = np.flatnonzero(values > RANK_TOL * values.max())
    roots = np.sqrt(values[keep])

    def chunk_osr(signs):
        w = np.zeros((signs.shape[0], values.size))
        w[:, keep] = signs * roots
        cuts = range(1, len(dims))
        return np.max([ranks(w.reshape(-1, prod(dims[:c]), prod(dims[c:]))) for c in cuts], axis=0)

    return min(int(chunk_osr(signs).min()) for signs in sign_patterns(keep.size))


def q_sqrt_spectral(rho, dims) -> int:
    """Least Schmidt rank of sum_i s_i sqrt(lambda_i) P_i over signs s (nonzero spectrum)."""
    w, v = np.linalg.eigh(rho)
    keep = w > RANK_TOL * w.max()
    lam, vec = w[keep], v[:, keep]

    def chunk_osr(signs):
        taus = np.einsum("ik,pk,jk->pij", vec, signs * np.sqrt(lam), vec.conj())
        return np.max([ranks(realign(taus, dims, c)) for c in range(1, len(dims))], axis=0)

    return min(int(chunk_osr(signs).min()) for signs in sign_patterns(lam.size))


def slack_tgon(t: int) -> np.ndarray:
    """Facet-vertex slack matrix of the regular t-gon."""
    ang_v = 2 * np.pi * np.arange(t) / t
    ang_f = (2 * np.arange(t) + 1) * np.pi / t
    return np.cos(np.pi / t) - np.cos(ang_f[:, None] - ang_v[None, :])


# ---------------------------------------------------------------------------
# report access


def entries(doc) -> dict:
    return {e["name"]: e for e in doc["entries"]}


def decode(x) -> np.ndarray:
    """Nested-list matrix from a report: [re, im] pairs at depth 3 mean complex."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 3:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr


def _real_matrix(x, what: str) -> np.ndarray:
    arr = decode(x)
    expect(not np.iscomplexobj(arr), f"{what} must be real, got complex entries")
    return arr


def _psd_matrices(items, r: int, what: str) -> list[np.ndarray]:
    out = []
    for x in items:
        mat = decode(x)
        expect(mat.shape == (r, r), f"{what} matrix has shape {mat.shape}, inner dim is {r}")
        scale = max(np.abs(mat).max(), 1e-300)
        expect(
            np.abs(mat - mat.conj().T).max() <= HERM_TOL * scale,
            f"{what} matrix is not Hermitian",
        )
        w = np.linalg.eigvalsh(mat)
        expect(w.min() >= -PSD_TOL * max(w.max(), 0.0), f"{what} matrix is not psd")
        out.append(mat)
    return out


def _rebuilds(recon, m, tol: float, what: str) -> None:
    """Max-abs error of a (possibly complex) reconstruction, imaginary part included."""
    scale = np.abs(m).max()
    err = np.abs(np.asarray(recon) - m).max()
    expect(err <= tol * scale, f"{what} rebuilds M to {err:.2e}, bar {tol * scale:.2e}")


def _traces(e_list, f_list) -> np.ndarray:
    return np.array([[np.sum(e * f) for f in f_list] for e in e_list])


# ---------------------------------------------------------------------------
# per-command checks; each returns a function of the parsed JSON report


def analyze_check(op, dims):
    """Check an ``analyze`` report against references computed from ``op``."""
    op = np.asarray(op)
    osr = max(osr_profile(op, dims))
    cap = schmidt_cap(dims)
    off = np.linalg.norm(op - np.diag(np.diagonal(op)))
    diagonal = bool(off <= 1e-10 * np.linalg.norm(op))
    q = None
    if rank(op) <= ENUM_RANK_CAP:
        q = q_sqrt_diagonal(np.diagonal(op).real, dims) if diagonal else q_sqrt_spectral(op, dims)

    def check(doc):
        e = entries(doc)
        expect(e["osr"]["value"] == osr, f"osr {e['osr']['value']} != reference {osr}")
        expect(e["osr"]["residual"] <= EXACT_TOL, "train residual above the exact bar")
        lo, hi = e["puri_rank"]["interval"]
        expect(lo == max(ceil(sqrt(osr)), 1), f"puri lower {lo} != ceil(sqrt({osr}))")
        expect(lo <= hi <= cap, f"puri interval [{lo}, {hi}] outside [lower, {cap}]")
        expect(e["puri_rank"]["residual"] <= EXACT_TOL, "purification residual above the exact bar")
        if q is None:
            expect("q_sqrt_rank" not in e, "q_sqrt_rank reported above the enumeration cap")
        else:
            expect(e["q_sqrt_rank"]["value"] == q, f"q_sqrt_rank {e['q_sqrt_rank']['value']} != reference {q}")
            expect(hi <= q, f"puri upper {hi} above q_sqrt_rank {q}")
        expect(e["diagonal"]["value"] == diagonal, "diagonal flag differs from reference")
        expect(e["dimension_bound_osr"] == {"name": "dimension_bound_osr", "value": True, "bound": cap},
               "dimension_bound_osr differs from reference")
        expect(e["dimension_bound_puri"]["value"] is True, "dimension_bound_puri is not true")
        expect(e["purification_square_bound"]["value"] is True, "purification_square_bound is not true")

    return check


def _certificate_doc(doc, kind: str, m, r: int) -> dict:
    e = entries(doc)["certificate"]
    expect(e["found"] is True, "certificate not found")
    expect(e["kind"] == kind, f"kind {e['kind']!r} != {kind!r}")
    cert = e["payload"]
    expect(cert["kind"] == kind and cert["inner_dim"] == e["inner_dim"] == r,
           f"inner dim {e['inner_dim']} (payload {cert['inner_dim']}) != reference {r}")
    expect(np.array_equal(_real_matrix(cert["matrix"], "certificate matrix"), m),
           "certificate is for another matrix")
    return cert["payload"]


def factorize_check(kind: str, m, r: int | None = None):
    """Check a successful ``factorize`` report.

    For the searches ``r`` is the requested inner dimension; for the exact
    ``hadamard-root`` and ``cpsdt`` routes the reference minimum rank is
    computed here by sign enumeration.
    """
    m = np.asarray(m, dtype=float)
    if kind == "hadamard-root":
        r = min_signed_rank(m, [tuple(p) for p in np.argwhere(m > 0)])
    elif kind == "cpsdt":
        d = m.shape[0]
        r = min_signed_rank(m, [(i, j) for i in range(d) for j in range(i, d) if m[i, j] > 0], True)

    def check(doc):
        pay = _certificate_doc(doc, kind, m, r)
        if kind in ("nonnegative", "cp"):
            left = _real_matrix(pay["factor"] if kind == "cp" else pay["left"], f"{kind} factor")
            right = left.T if kind == "cp" else _real_matrix(pay["right"], f"{kind} factor")
            expect(left.shape == (m.shape[0], r) and right.shape == (r, m.shape[1]),
                   f"{kind} factor shapes {left.shape}, {right.shape} do not match inner dim {r}")
            expect(min(left.min(), right.min()) >= -NONNEG_TOL, f"{kind} factor has negative entries")
            _rebuilds(left @ right, m, SEARCH_TOL, kind)
        elif kind == "psd":
            e_list = _psd_matrices(pay["E"], r, "psd E")
            f_list = _psd_matrices(pay["F"], r, "psd F")
            expect(len(e_list) == m.shape[0] and len(f_list) == m.shape[1], "psd tuple lengths")
            _rebuilds(_traces(e_list, f_list), m, SEARCH_TOL, kind)
        elif kind == "cpsdt":
            e_list = _psd_matrices(pay["E"], r, "cpsdt E")
            expect(len(e_list) == m.shape[0], "cpsdt tuple length")
            _rebuilds(_traces(e_list, e_list), m, EXACT_TOL, kind)
            root = _real_matrix(pay["root"], "cpsdt root")
            expect(np.array_equal(root, root.T), "cpsdt root is not symmetric")
            _rebuilds(root * root, m, EXACT_TOL, "cpsdt root")
            expect(rank(root) == r, f"cpsdt root has rank {rank(root)}, claimed {r}")
        else:  # hadamard-root
            root = _real_matrix(pay["root"], "square root")
            _rebuilds(root * root, m, EXACT_TOL, kind)
            expect(rank(root) == r, f"root has rank {rank(root)}, claimed {r}")

    return check


def not_found_check(kind: str, r: int):
    def check(doc):
        e = entries(doc)["certificate"]
        expect(e == {"name": "certificate", "found": False, "kind": kind, "r": r},
               f"infeasible search report differs: {e}")

    return check


def convert_check(kind: str, m):
    """Check ``convert --direction both`` (or ``to-matrix`` for nonnegative)."""
    m = np.asarray(m, dtype=float)
    rk = rank(m)
    upper = min(m.shape)
    sqrt_r = None
    if kind == "hadamard-root":
        sqrt_r = min_signed_rank(m, [tuple(p) for p in np.argwhere(m > 0)])

    def check(doc):
        e = entries(doc)
        if kind == "nonnegative":
            state, back = e["state_certificate"], e["matrix_certificate"]
            expect(rk <= state["inner_dim"] <= upper, f"nonneg inner dim {state['inner_dim']} outside [{rk}, {upper}]")
            expect(state["residual"] <= SEARCH_TOL * sqrt(m.size), "state certificate residual above the search bar")
            expect(state["site_symmetric"] is False, "nonneg state certificate marked site symmetric")
            expect(back["kind"] == "nonnegative" and back["inner_dim"] == state["inner_dim"],
                   "round trip changed the inner dimension")
            expect(back["residual"] <= SEARCH_TOL * np.abs(m).max(), "round-trip residual above the search bar")
            return
        c = e["correspondence"]
        if kind in ("minimal", "symmetric", "hadamard-root"):
            want = sqrt_r if kind == "hadamard-root" else rk
            expect(c["matrix_side"] == c["state_side"] == want,
                   f"{kind} sides {c['matrix_side']}, {c['state_side']} != reference {want}")
            if kind == "minimal":
                expect(c["round_trip_inner"] == [want, want], "minimal round trip changed the inner dim")
            expect(c["verdict"] == "exact-match", f"verdict {c['verdict']!r}")
            return
        (mlo, mhi), (slo, shi) = c["matrix_side"], c["state_side"]
        if kind == "psd":
            expect(mlo == slo == ceil(sqrt(rk)), f"psd lower bounds {mlo}, {slo} != ceil(sqrt({rk}))")
        else:  # cp
            expect(mlo == slo == rk, f"cp lower bounds {mlo}, {slo} != rank {rk}")
            expect(mhi == shi <= upper, f"cp upper bounds {mhi}, {shi} disagree or exceed {upper}")
        expect(mlo <= mhi and slo <= shi, f"empty interval in {c}")
        consistent = max(mlo, slo) <= min(mhi, shi)
        expect(consistent and c["verdict"] == "intervals-consistent", f"verdict {c['verdict']!r} on {c}")

    return check


def wstate_check(ns):
    def check(doc):
        e = entries(doc)
        expect(len(e) == len(ns), "wrong number of W-state entries")
        for n in ns:
            x = e[f"n={n}"]
            expect(x["open_residual"] <= 1e-12 and x["cyclic_residual"] <= 1e-12, f"W n={n} residual")
            expect(x["cyclic_bond"] == 2 * n, f"W n={n} cyclic bond {x['cyclic_bond']}")
            expect(x["periodicity_holds"] is True and x["ti_bond_lower_bound"] == ceil(sqrt(n)),
                   f"W n={n} periodicity bound")

    return check


def mixedw_check(ns):
    def check(doc):
        e = entries(doc)
        expect(len(e) == len(ns), "wrong number of mixed-W entries")
        for n in ns:
            x = e[f"n={n}"]
            expect(x["shift_defect"] <= 1e-12, f"mixed W n={n} is not shift invariant")
            expect(x["sep_inner_dim"] == 2 and x["sep_residual"] <= 1e-10 and x["psd_core_defect"] <= 1e-12,
                   f"mixed W n={n} separable certificate")
            expect(x["periodicity_holds"] is True and x["ti_bond_lower_bound"] == ceil(sqrt(n)),
                   f"mixed W n={n} periodicity bound")

    return check


def tgon_check(ts):
    want = {}
    for t in ts:
        s = slack_tgon(t)
        r = rank(s)
        want[f"t={t}"] = {"rank": r, "psd_rank_lower": ceil(sqrt(r)), "zero_entries": int(np.count_nonzero(s < 1e-9))}

    def check(doc):
        e = entries(doc)
        expect(len(e) == len(want), "wrong number of polygon entries")
        for name, ref in want.items():
            got = {k: e[name][k] for k in ref}
            expect(got == ref, f"{name}: {got} != reference {ref}")

    return check


def bounds_check(count: int):
    names = ("subadditive", "submultiplicative", "purification_square",
             "separable_dominates_purification", "dimension_cap")

    def check(doc):
        e = entries(doc)
        for name in names:
            expect(e[name]["violations"] == 0 and e[name]["instances"] == count, f"bounds {name}: {e[name]}")

    return check


# ---------------------------------------------------------------------------
# self-test: corrupted reports must be counted as failed


def _complexify(nested):
    arr = np.asarray(nested, dtype=float)
    pairs = np.stack([arr, np.full_like(arr, 1e-3)], axis=-1)
    return pairs.tolist()


def corruptions(doc):
    """Yield (label, corrupted copy) for each corruption that applies to a report."""
    e = entries(doc)
    if "osr" in e:
        bad = copy.deepcopy(doc)
        entries(bad)["osr"]["value"] += 1
        yield "off-by-one osr", bad
    if "correspondence" in e and isinstance(e["correspondence"].get("matrix_side"), int):
        bad = copy.deepcopy(doc)
        entries(bad)["correspondence"]["matrix_side"] += 1
        yield "off-by-one matrix-side rank", bad
    cert = e.get("certificate")
    if cert and cert.get("found"):
        bad = copy.deepcopy(doc)
        c = entries(bad)["certificate"]
        c["inner_dim"] += 1
        c["payload"]["inner_dim"] += 1
        yield "off-by-one inner dim", bad
        pay = cert["payload"]["payload"]
        for key in ("factor", "left"):
            if key in pay and np.asarray(pay[key]).ndim == 2:
                bad = copy.deepcopy(doc)
                inner = entries(bad)["certificate"]["payload"]["payload"]
                inner[key] = _complexify(inner[key])
                yield f"complex {key} factor", bad
        if "E" in pay:
            bad = copy.deepcopy(doc)
            e0 = decode(entries(bad)["certificate"]["payload"]["payload"]["E"][0]).astype(complex)
            e0[0, -1] += 1e-3j * max(np.abs(e0).max(), 1.0)
            entries(bad)["certificate"]["payload"]["payload"]["E"][0] = np.stack(
                [e0.real, e0.imag], axis=-1).tolist()
            yield "non-Hermitian E[0]", bad
