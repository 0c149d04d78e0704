"""Span recording for the traced run, from outside the package.

Each traced function is wrapped and the wrapper is bound under every name
that holds the original: in each ``mpdo_kit`` module namespace (so calls
between package modules are seen too), on ``numpy.linalg`` and ``numpy``
for the kernel boundary, and on ``cli.Report`` for ``emit``.  A span
records its name, start, end, parent span and command index; spans are
kept in flat arrays and summarized after the pass.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager

import numpy as np

ENUMERATIONS = (
    "decompositions.q_sqrt_rank",
    "nonneg_factorizations.sqrt_rank",
    "nonneg_factorizations.cpsdt_construct",
)
CANDIDATE_CHILDREN = ("tensor_core.numerical_rank", "decompositions.operator_schmidt_rank")
SEARCHES = tuple(
    f"nonneg_factorizations.{k}_factorization_search" for k in ("nonneg", "psd", "cp")
)
LINALG = ("svd", "eigh", "eigvalsh", "eigvals")
SUBCOMMANDS = ("analyze", "factorize", "convert", "experiment")

#: Package functions traced as "module.function", besides the cmd_* bodies and Report.emit.
PACKAGE = (
    "cli.load_matrix",
    "tensor_core.contract_train",
    "tensor_core.contract_cyclic",
    "tensor_core.numerical_rank",
    "tensor_core.svd_split",
    "decompositions.mpo_train_form",
    "decompositions.operator_schmidt_rank",
    "decompositions.local_purification_spectral",
    "decompositions.q_sqrt_rank",
    "decompositions.transfer_matrix",
    "decompositions.periodicity_lower_bound",
    "nonneg_factorizations.sqrt_rank",
    "nonneg_factorizations.cpsdt_construct",
    "nonneg_factorizations.least_squares",
    *SEARCHES,
    "correspondence.verify_correspondence",
    "correspondence.factorization_to_decomposition",
    "correspondence.decomposition_to_factorization",
    "certificates.pair_traces",
)

#: The one span whose peak allocation is taken with tracemalloc.
ALLOC_SPAN = "nonneg_factorizations.cpsdt_construct"


class Recorder:
    """Spans of one traced pass plus counters gathered at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.stack = [-1]
        self.command = -1  # index of the running command; -1 records nothing
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def wrap(self, fn, span: str, after=None, alloc: bool = False):
        """Return a wrapper that records a span per call made inside a command.

        ``after(recorder, args, result)`` adds counters once the call returns;
        ``alloc`` records the call's peak traced allocation.
        """
        nid = len(self.names)
        self.names.append(span)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.command < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.cmd.append(self.command)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            if alloc:
                tracemalloc.start()
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if alloc:
                    self.peak(f"{span}.peak_alloc_mb", tracemalloc.get_traced_memory()[1] / 1e6)
                    tracemalloc.stop()
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "cmd": np.frombuffer(self.cmd, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write the spans and the name table as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per-span-name calls, busy and self seconds, plus enumeration candidates."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - covered
        nnames = len(self.names)
        out = {}
        calls = np.bincount(a["name"], minlength=nnames)
        busy = np.bincount(a["name"], weights=dur, minlength=nnames)
        own = np.bincount(a["name"], weights=self_t, minlength=nnames)
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[nid])
            out[f"{span}.busy_s"] = float(busy[nid])
            out[f"{span}.self_s"] = float(own[nid])
        # candidates: direct rank-evaluation children of each enumeration span
        ids = {span: nid for nid, span in enumerate(self.names)}
        is_cand = np.isin(a["name"], [ids[c] for c in CANDIDATE_CHILDREN]) & has_parent
        per_parent = np.bincount(a["parent"][is_cand], minlength=dur.size)
        for span in ENUMERATIONS:
            out[f"{span}.candidates"] = int(per_parent[a["name"] == ids[span]].sum())
        top = ~has_parent
        out["top_level_s"] = float(dur[top].sum())
        out["cli.self_s"] = float(self_t[top].sum())
        out.update(self.counts)
        return out


def _found(span):
    def after(rec, args, out):
        rec.add(f"{span}.found", 0 if out is None else 1)

    return after


def _train_work(rec, args, out):
    """Computed work of one contract_train: real flops of the complex
    multiply-adds of each left-to-right step, and megabytes each step writes."""
    cores = args[0].cores
    rows, cols, flops, out_bytes = cores[0].shape[1], cores[0].shape[2], 0, 0
    for core in cores[1:]:
        bond, k, l, c = core.shape
        flops += 8 * rows * cols * bond * k * l * c
        rows, cols = rows * k, cols * l
        out_bytes += 16 * rows * cols * c
    rec.add("tensor_core.contract_train.flops", flops)
    rec.add("tensor_core.contract_train.out_mb", out_bytes / 1e6)


def _input_size(rec, args, out):
    rec.add("cli.load_matrix.input_mb", os.path.getsize(args[0]) / 1e6)


def _targets():
    """(owner, attribute, span name, after hook, alloc) for each traced boundary."""
    from mpdo_kit import cli

    hooks = {
        "cli.load_matrix": _input_size,
        "tensor_core.contract_train": _train_work,
        **{span: _found(span) for span in SEARCHES},
    }
    out = [(cli, f"cmd_{sub}", f"cli.{sub}") for sub in SUBCOMMANDS]
    out.append((cli.Report, "emit", "cli.emit"))
    for span in PACKAGE:
        module, attr = span.split(".")
        out.append((importlib.import_module(f"mpdo_kit.{module}"), attr, span))
    out += [(np.linalg, fn, f"linalg.{fn}") for fn in LINALG]
    out.append((np, "einsum", "linalg.einsum"))
    return [(owner, attr, span, hooks.get(span), span == ALLOC_SPAN) for owner, attr, span in out]


@contextmanager
def instrument(rec: Recorder):
    """Bind traced wrappers for the duration of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, span, after, alloc in _targets():
            original = getattr(owner, attr)
            wrapper = rec.wrap(original, span, after, alloc)
            holders = [owner]
            if owner.__name__.startswith("mpdo_kit"):
                holders = [
                    mod for name, mod in sorted(sys.modules.items())
                    if name.split(".")[0] == "mpdo_kit" and mod is not None
                ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, name, original))
                        setattr(holder, name, wrapper)
        yield rec
    finally:
        for holder, name, original in reversed(saved):
            setattr(holder, name, original)
