"""Determinism and edge-case coverage across modules."""

import copy

import numpy as np
import pytest

from cpdilate.chan import (
    KrausFamily,
    choi_to_kraus,
    classify,
    identity_channel,
    kraus_equivalence_unitary,
    kraus_to_choi,
)
from cpdilate.dilation import verify_e_dilation
from cpdilate.linalg import fro
from cpdilate.prodsys import GridPoint, build_product_system, verify_representation
from cpdilate.stochastic import DiagonalIntertwiner, IntertwinerBlock, semigroup_at
from cpdilate.strongcomm import strong_commutation_certificate

from conftest import CommutingFamily, lifted, mix_of_unitaries


class TestDeterminism:
    def test_certificate_bit_identical(self, rng):
        family = CommutingFamily(3, rng)
        theta = mix_of_unitaries(family, 2)
        phi = mix_of_unitaries(family, 2)
        c1 = strong_commutation_certificate(theta, phi)
        c2 = strong_commutation_certificate(theta, phi)
        assert np.array_equal(c1.u, c2.u)
        assert c1.unitarity_residual == c2.unitarity_residual

    def test_dilation_factor_bit_identical(self, corner_pair):
        outs = [lifted(*corner_pair, GridPoint(2, 2), GridPoint(1, 1)) for _ in range(2)]
        blocks = [out.dsp.blocks for out in outs]
        assert list(blocks[0]) == list(blocks[1])
        assert all(np.array_equal(f, blocks[1][g]) for g, f in blocks[0].items())
        assert outs[0].v_blocks.keys() == outs[1].v_blocks.keys()
        for g, mats in outs[0].v_blocks.items():
            assert all(np.array_equal(a, b) for a, b in zip(mats, outs[1].v_blocks[g]))

    def test_choi_to_kraus_bit_identical(self, rng):
        choi = kraus_to_choi(mix_of_unitaries(CommutingFamily(2, rng), 3))
        k1 = choi_to_kraus(choi)
        k2 = choi_to_kraus(choi)
        assert all(np.array_equal(a, b) for a, b in zip(k1.ops, k2.ops))

    def test_semigroup_bit_identical(self, rng):
        p = rng.uniform(0.1, 1.0, size=(5, 5))
        p = p / p.sum(axis=1, keepdims=True)
        assert np.array_equal(semigroup_at(p, 0.7), semigroup_at(p, 0.7))


class TestEdges:
    def test_zero_channel_classifies(self):
        k = KrausFamily(2, (np.zeros((2, 2), dtype=complex),))
        rep = classify(k)
        assert rep.is_cp and rep.is_contractive and not rep.is_unital

    def test_zero_channel_equivalence_is_identity(self):
        z = KrausFamily(2, (np.zeros((2, 2), dtype=complex),))
        u = kraus_equivalence_unitary(z, z)
        assert np.array_equal(u, np.eye(1, dtype=complex))

    def test_choi_of_zero_map(self):
        k = choi_to_kraus(np.zeros((4, 4), dtype=complex))
        assert len(k.ops) == 1
        assert fro(k.ops[0]) == 0.0

    def test_one_dimensional_h_full_pipeline(self):
        theta = identity_channel(1)
        res = lifted(theta, theta, GridPoint(4, 4), GridPoint(2, 2))
        rep = verify_e_dilation(res, theta, theta, GridPoint(2, 2))
        assert rep.passed and res.dsp.dim_k == 1


def array_holders(zx_pair):
    """One instance of each dataclass that holds arrays, by class name."""
    res = lifted(*zx_pair, GridPoint(1, 1), GridPoint(1, 1))
    block = IntertwinerBlock((0,), (0,), np.eye(1))
    return {
        "KrausFamily": zx_pair[0],
        "StrongCommutationCertificate": strong_commutation_certificate(*zx_pair),
        "TwistedProductSystem": res.sys,
        "DilationSpace": res.dsp,
        "EDilationResult": res,
        "IntertwinerBlock": block,
        "DiagonalIntertwiner": DiagonalIntertwiner(1, {0: block}, 0.0, 0.0),
    }


@pytest.mark.parametrize(
    "name",
    [
        "KrausFamily", "StrongCommutationCertificate", "TwistedProductSystem",
        "DilationSpace", "EDilationResult", "IntertwinerBlock", "DiagonalIntertwiner",
    ],
)
def test_array_holders_compare_by_identity(name, zx_pair):
    # Field-wise equality would compare arrays, which raises; identity does not.
    x = array_holders(zx_pair)[name]
    assert type(x).__name__ == name
    assert x == x
    assert x != copy.deepcopy(x)
    assert len({x, x}) == 1


class TestScale:
    def test_m3_twisted_pair_representation(self, rng):
        family = CommutingFamily(3, rng)
        theta = mix_of_unitaries(family, 2)
        phi = mix_of_unitaries(family, 2)
        cert = strong_commutation_certificate(theta, phi)
        sys_ = build_product_system(theta, phi, cert)
        rep = verify_representation(sys_, GridPoint(3, 3), tol=1e-8)
        assert rep.passed

    def test_m4_certificate_and_grid(self, rng):
        family = CommutingFamily(4, rng)
        theta = mix_of_unitaries(family, 3)
        phi = mix_of_unitaries(family, 2)
        cert = strong_commutation_certificate(theta, phi)
        assert cert.u.shape == (6, 6)
        assert max(cert.unitarity_residual, cert.intertwining_residual) < 1e-9
        sys_ = build_product_system(theta, phi, cert)
        rep = verify_representation(sys_, GridPoint(2, 2), tol=1e-8)
        assert rep.passed

    def test_m3_twisted_dilation(self, rng):
        family = CommutingFamily(3, rng)
        theta = mix_of_unitaries(family, 2)
        phi = KrausFamily(3, (family.member(),))
        res = lifted(theta, phi, GridPoint(2, 2), GridPoint(1, 1))
        rep = verify_e_dilation(res, theta, phi, GridPoint(1, 1))
        assert rep.passed
        assert res.dsp.dim_k == res.sys.fiber_dim(GridPoint(2, 2)) * 3
