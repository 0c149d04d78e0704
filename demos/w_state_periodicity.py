#!/usr/bin/env python3
"""The W state: open-boundary bond 2, cyclic single-tensor bond 2n, and the
n-periodic signature in the transfer spectrum of that cyclic tensor.

The cyclic tensor's transfer matrix, rescaled to unit spectral radius,
carries every n-th root of unity in its spectrum.  That is a property of
the block-cyclic tensor, which has it for every state it folds, not a
bound on the state: the product state below has a bond-1 cyclic tensor.
"""

import numpy as np

from mpdo_kit import (
    contract_cyclic,
    contract_train,
    periodicity_lower_bound,
    transfer_matrix,
    w_state_generators,
)

print(f"{'n':>3} {'open resid':>12} {'cyclic resid':>13} {'bond':>5} "
      f"{'roots found':>12} {'value':>6}")
for n in range(3, 11):
    fam = w_state_generators(n)
    open_res = np.linalg.norm(contract_train(fam.open_train).ravel() - fam.vector)
    cyc_res = np.linalg.norm(contract_cyclic(fam.cyclic_site, n).ravel() - fam.vector)
    holds, bound = periodicity_lower_bound(fam.cyclic_site, n)
    print(f"{n:>3} {open_res:>12.2e} {cyc_res:>13.2e} {fam.cyclic_site.bond_dim:>5} "
          f"{str(holds):>12} {bound:>6}")

print()
print("peripheral spectrum for n = 6, against the 6th roots of unity:")
fam = w_state_generators(6)
eigs = np.linalg.eigvals(transfer_matrix(fam.cyclic_site))
scaled = eigs / np.abs(eigs).max()
peripheral = scaled[np.abs(np.abs(scaled) - 1.0) < 1e-9]
angles = np.sort(np.round(np.angle(peripheral) / (2 * np.pi / 6), 6))
print(f"  {len(peripheral)} peripheral eigenvalues at angles (units of 2 pi/6): {angles}")

print()
print("the bond-1 cyclic tensor of a product state has no such signature")
from mpdo_kit import TiSiteTensor

site = TiSiteTensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1))
holds, bound = periodicity_lower_bound(site, 3)
print(f"  holds = {holds}, value = {bound}")
