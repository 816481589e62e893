"""Tests for complex-matrix primitives: factorizations, modulus, supports."""

import math
import warnings

import numpy as np
import pytest

from schatten_lab import norms, ortho, parallel
from schatten_lab.cmatrix import (
    abs_power,
    as_matrix,
    as_square,
    as_vector,
    eigenvalues,
    hermitian_eigensystem,
    loewner_geq,
    modulus,
    null_space,
    polar,
    singular_values,
    support_projection,
    svd,
)


def _rng(seed):
    return np.random.default_rng(seed)


def _draw(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestConversions:
    def test_as_matrix_accepts_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == complex
        assert m.shape == (2, 2)

    def test_as_matrix_rejects_vectors(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    def test_as_vector_rejects_matrices(self):
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("entry", [
        as_square,
        eigenvalues,
        lambda r: loewner_geq(r, r),
        norms.numerical_radius_hilbert,
        lambda r: norms.numerical_radius_banach(r, 2.0),
        ortho.loewner_identity_test,
        lambda r: ortho.loewner_domination(r, r, bj_ps=()),
        lambda r: parallel.parallel_trace_class(r, r),
        lambda r: parallel.parallel_identity_trace(r, 2.0),
        parallel.parallel_identity_radius,
        parallel.eigen_parallel_identity,
        lambda r: parallel.epsilon_isometry_transfer(r, r, np.eye(2), 0.1),
    ], ids=["as_square", "eigenvalues", "loewner_geq", "numerical_radius_hilbert",
            "numerical_radius_banach", "loewner_identity_test", "loewner_domination",
            "parallel_trace_class", "parallel_identity_trace", "parallel_identity_radius",
            "eigen_parallel_identity", "epsilon_isometry_transfer"])
    def test_square_only_entries_reject_rectangular(self, entry):
        with pytest.raises(ValueError, match="square"):
            entry(np.ones((2, 3)))


class TestSvd:
    def test_frozen_singular_values(self):
        # For [[1,2],[3,4]] the Gram matrix has trace 30 and determinant 4,
        # so the squared singular values are 15 +/- sqrt(221).
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.sqrt([15.0 + math.sqrt(221.0), 15.0 - math.sqrt(221.0)])
        assert np.allclose(singular_values(a), expected, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = _rng(7)
        for shape in [(3, 3), (4, 2), (2, 5)]:
            a = _draw(rng, shape)
            f = svd(a)
            assert np.allclose(f.reconstruct(), a, atol=1e-12)
            r = min(shape)
            assert np.allclose(f.u.conj().T @ f.u, np.eye(r), atol=1e-12)
            assert np.allclose(f.v.conj().T @ f.v, np.eye(r), atol=1e-12)
            s = f.singular_values
            assert np.all(s[:-1] >= s[1:] - 1e-15)
            assert np.all(s >= 0)


class TestPolarAndModulus:
    def test_modulus_of_shifted_rank_one(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert np.allclose(modulus(a), np.diag([0.0, 2.0]), atol=1e-12)

    def test_modulus_is_psd_square_root_of_gram(self):
        rng = _rng(3)
        for _ in range(10):
            a = _draw(rng, (4, 4))
            m = modulus(a)
            assert np.allclose(m, m.conj().T, atol=1e-12)
            assert np.allclose(m @ m, a.conj().T @ a, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(m)) >= -1e-12

    def test_polar_reconstructs_with_isometric_factor(self):
        rng = _rng(5)
        for _ in range(10):
            a = _draw(rng, (4, 4))
            f = polar(a)
            assert np.allclose(f.isometry @ f.modulus, a, atol=1e-10)
            assert np.allclose(
                f.isometry.conj().T @ f.isometry, np.eye(4), atol=1e-10
            )

    def test_polar_rank_deficient(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = 2.0
        f = polar(a)
        assert np.allclose(f.isometry @ f.modulus, a, atol=1e-12)
        assert np.allclose(f.modulus, modulus(a), atol=1e-12)
        # The factor is a partial isometry: u* u is the support projection.
        gram = f.isometry.conj().T @ f.isometry
        assert np.allclose(gram @ gram, gram, atol=1e-10)

    def test_polar_modulus_is_modulus_below_the_rank_cutoff(self):
        # A singular value at 3e-11 s_max is below RANK_RTOL: both moduli
        # drop it, so they agree bit for bit.
        rng = _rng(11)
        u, _ = np.linalg.qr(_draw(rng, (4, 4)))
        v, _ = np.linalg.qr(_draw(rng, (4, 4)))
        a = (u * np.array([1.0, 0.5, 0.25, 3e-11])) @ v.conj().T
        assert np.array_equal(polar(a).modulus, modulus(a))

    def test_abs_power_on_diagonal(self):
        a = np.diag([3.0, 4.0]).astype(complex)
        assert np.allclose(abs_power(a, 2.0), np.diag([9.0, 16.0]), atol=1e-12)
        assert np.allclose(abs_power(a, 0.5), np.diag([math.sqrt(3), 2.0]), atol=1e-12)

    def test_abs_power_rank_deficient_sets_every_entry(self):
        a = np.diag([2.0, 0.0, 0.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = abs_power(a, 0.5)
        assert np.array_equal(p, np.diag([math.sqrt(2.0), 0.0, 0.0]))

    def test_abs_power_one_is_modulus(self):
        rng = _rng(9)
        a = _draw(rng, (3, 3))
        assert np.allclose(abs_power(a, 1.0), modulus(a), atol=1e-12)


class TestEigen:
    def test_sorted_by_descending_modulus(self):
        a = np.diag([3.0, -1.0, 2.0j])
        e = eigenvalues(a)
        assert np.allclose(np.abs(e), [3.0, 2.0, 1.0], atol=1e-12)
        assert abs(e[0] - 3.0) <= 1e-12
        assert abs(e[1] - 2.0j) <= 1e-12
        assert abs(e[2] + 1.0) <= 1e-12

    def test_hermitian_eigensystem_reconstructs(self):
        rng = _rng(13)
        g = _draw(rng, (4, 4))
        h = 0.5 * (g + g.conj().T)
        w, v = hermitian_eigensystem(h)
        assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_hermitian_eigensystem_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLoewner:
    def test_diagonal_order(self):
        assert loewner_geq(np.diag([2.0, 1.0]), np.diag([1.0, 0.0]))
        assert not loewner_geq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_psd_cone_membership(self):
        rng = _rng(17)
        g = _draw(rng, (4, 4))
        p = g @ g.conj().T
        assert loewner_geq(p, np.zeros((4, 4)))
        assert not loewner_geq(-p, np.zeros((4, 4)))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            loewner_geq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


class TestSupports:
    def test_null_space_of_rank_one(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        ns = null_space(a)
        assert ns.shape == (2, 1)
        assert np.allclose(a @ ns, 0.0, atol=1e-12)
        assert abs(abs(ns[1, 0]) - 1.0) <= 1e-12

    def test_null_space_of_invertible_is_empty(self):
        ns = null_space(np.eye(3))
        assert ns.shape == (3, 0)

    def test_support_projections_act_as_identity(self):
        rng = _rng(19)
        g = _draw(rng, (4, 2))
        v = _draw(rng, (4, 2))
        a = g @ v.conj().T  # rank two inside a 4x4 frame
        pr = support_projection(a, side="right")
        pl = support_projection(a, side="left")
        assert np.allclose(a @ pr, a, atol=1e-10)
        assert np.allclose(pl @ a, a, atol=1e-10)
        for p in (pr, pl):
            assert np.allclose(p, p.conj().T, atol=1e-12)
            assert np.allclose(p @ p, p, atol=1e-10)
            assert abs(np.trace(p).real - 2.0) <= 1e-9
