#!/usr/bin/env python3
"""End-to-end dilation walkthrough on three commuting pairs.

For each pair, one dilate call certifies strong commutation, builds the
twisted product system, realizes the dilation space K = X(horizon) tensor H
block by block down from the top, and checks the endomorphic dilation
identities plus minimality; the covariant representation is then verified on
the grid. Prints a compact summary per pair and exits 1 when any pair fails
verification.
"""

import argparse
import sys
import time

import numpy as np

from cpdilate.chan import KrausFamily, identity_channel
from cpdilate.dilation import dilate
from cpdilate.prodsys import GridPoint, verify_representation


def named_pairs(seed: int):
    rng = np.random.default_rng(seed)
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    t1 = np.zeros((2, 2), dtype=complex)
    t1[0, 0] = 1.0
    t2 = np.zeros((2, 2), dtype=complex)
    t2[1, 0] = 1.0

    basis, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u1 = basis @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))) @ basis.conj().T
    u2 = basis @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))) @ basis.conj().T
    w = basis @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))) @ basis.conj().T
    p = rng.uniform(0.2, 0.8)

    return [
        ("pauli Z/X conjugations", KrausFamily(2, (z,)), KrausFamily(2, (x,))),
        ("corner collapse / identity", KrausFamily(2, (t1, t2)), identity_channel(2)),
        (
            "random mix / conjugation",
            KrausFamily(2, (np.sqrt(p) * u1, np.sqrt(1 - p) * u2)),
            KrausFamily(2, (w,)),
        ),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", nargs=2, type=int, default=(3, 3))
    ap.add_argument("--margin", nargs=2, type=int, default=(1, 1))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    horizon = GridPoint(*args.horizon)
    margin = GridPoint(*args.margin)

    all_passed = True
    for name, theta, phi in named_pairs(args.seed):
        start = time.perf_counter()
        run = dilate(theta, phi, horizon, margin)
        cert, dsp, ver, mini = run.cert, run.res.dsp, run.report, run.minimality
        rep = verify_representation(run.res.sys, horizon)
        elapsed = time.perf_counter() - start

        print(f"== {name}  (m={len(theta)}, k={len(phi)}, n={theta.dim})")
        print(
            f"   certificate residuals: unitarity {cert.unitarity_residual:.1e}, "
            f"intertwining {cert.intertwining_residual:.1e}"
        )
        print(
            f"   representation at {horizon.key()}: identity {rep.identity_residual:.1e}, "
            f"homomorphism {rep.homomorphism_residual:.1e}, "
            f"coisometry {rep.coisometry_residual:.1e}"
        )
        print(
            f"   dilation: big space {dsp.big.total_dim}, dimK {dsp.dim_k}, "
            f"gram min eig {dsp.gram_min_eig:.1e}"
        )
        print(
            f"   residuals: isometry {ver.isometry_residual:.1e}, "
            f"coisometry {ver.coisometry_residual:.1e}, "
            f"dilation {ver.dilation_residual:.1e}, "
            f"semigroup {ver.semigroup_residual:.1e}, "
            f"endomorphism {ver.multiplicativity_residual:.1e}"
        )
        print(
            f"   minimality: span {mini.span_dim}/{mini.dim_k}, "
            f"commutant dim {mini.commutant_dim}, closure dim {mini.closure_dim}"
        )
        all_passed = all_passed and run.passed
        print(f"   verified: {run.passed}   [{elapsed:.2f}s]")
        print()
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
