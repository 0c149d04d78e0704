#!/usr/bin/env python3
"""The six factorizations of a nonnegative matrix on worked examples.

Exact routes (minimal rank, symmetric Takagi factorization, square-root
enumeration, constructive cpsdt) report exact inner dimensions; the searches
(nonnegative, psd, cp) report one-sided upper bounds backed by checkable
certificates.
"""

from math import ceil, sqrt

import numpy as np

from mpdo_kit import (
    check_factor_certificate,
    cp_factorization_search,
    cpsdt_construct,
    minimal_factorization,
    nonneg_factorization_search,
    numerical_rank,
    psd_factorization_search,
    scan_nonneg_certificate,
    slack_matrix_tgon,
    sqrt_rank,
    symmetric_factorization,
    NecessaryConditionError,
)

flip = np.array([[0.0, 1.0], [1.0, 0.0]])

print("=== the flip matrix [[0,1],[1,0]] ===")
print(f"rank: {minimal_factorization(flip).inner_dim}")
cert = symmetric_factorization(flip)
print(f"symmetric factorization: {cert.inner_dim} columns, complex entries:"
      f" {np.abs(cert.payload['factor'].imag).max() > 0.01}")
rank, _ = sqrt_rank(flip)
print(f"square-root rank (exact enumeration): {rank}")
cert = cpsdt_construct(flip)
check_factor_certificate(flip, cert)
print(f"cpsdt factorization: size {cert.inner_dim}, some E_i complex:"
      f" {any(np.abs(np.asarray(e).imag).max() > 0.01 for e in cert.payload['E'])}")
try:
    cp_factorization_search(flip, 2)
except NecessaryConditionError as exc:
    print(f"cp factorization rejected: {exc.condition} (a real symmetric route cannot exist)")

print()
print("=== nonnegative rank gap on the 4-cycle pattern ===")
circ = np.array([[1.0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
print(f"rank = {numerical_rank(circ)}, nonnegative search first succeeds at"
      f" r = {scan_nonneg_certificate(circ).inner_dim}")

print()
print("=== polygon slack matrices: rank stays 3, psd side must grow ===")
print(f"{'t':>4} {'rank':>5} {'psd lower':>10}")
for t in (3, 8, 16, 32, 50):
    slack = slack_matrix_tgon(t).entries
    rank = numerical_rank(slack)
    # a size-r psd factorization's trace pairing has rank <= r^2
    print(f"{t:>4} {rank:>5} {ceil(sqrt(rank)):>10}")

print()
print("=== planted searches recover their instances ===")
rng = np.random.default_rng(7)
a = rng.uniform(0.2, 1.2, (6, 3))
b = rng.uniform(0.2, 1.2, (3, 6))
cert = nonneg_factorization_search(a @ b, 3)
print(f"nonnegative at planted r=3: found = {cert is not None},"
      f" residual = {cert.residual:.1e}")

a = rng.uniform(0.2, 1.2, (5, 3))
cert = cp_factorization_search(a @ a.T, 3)
print(f"cp at planted r=3:          found = {cert is not None},"
      f" residual = {cert.residual:.1e}")

cert = psd_factorization_search(np.eye(2), 2)
print(f"psd for I2 at r=2:          found = {cert is not None},"
      f" residual = {cert.residual:.1e}")
