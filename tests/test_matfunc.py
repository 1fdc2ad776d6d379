import numpy as np
import pytest

from dynkit.errors import ConvergenceError, HermiticityError
from dynkit.matfunc import (
    PADE_NORM_BOUND,
    expm_pade,
    expm_taylor,
    func_of_hermitian,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(dim, norm, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = (a + a.conj().T) / 2
    return a * (norm / np.linalg.norm(a, 1))


class TestFuncOfHermitian:
    def test_identity_exponential(self):
        out = func_of_hermitian(np.eye(2), np.exp)
        np.testing.assert_allclose(out, np.e * np.eye(2), atol=1e-14)

    def test_pauli_rotation_identity(self):
        theta = 0.7321
        out = func_of_hermitian(SIGMA_X, lambda lam: np.exp(1j * theta * lam))
        expected = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * SIGMA_X
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_matches_taylor_oracle(self):
        a = random_hermitian(8, 3.0, seed=11)
        via_eigh = func_of_hermitian(a, np.exp)
        via_taylor = expm_taylor(a, tol=1e-14).result
        assert np.max(np.abs(via_eigh - via_taylor)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            func_of_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), np.exp)


class TestExpmTaylor:
    def test_zero_matrix(self):
        rep = expm_taylor(np.zeros((3, 3)))
        np.testing.assert_allclose(rep.result, np.eye(3))
        assert rep.matrix_multiplications == 0

    def test_diagonal_scalars(self):
        rep = expm_taylor(np.diag([1.0, 2.0]), tol=1e-14)
        np.testing.assert_allclose(np.diag(rep.result), [np.e, np.e ** 2],
                                   atol=1e-12)

    def test_cost_grows_linearly_in_norm(self):
        a = random_hermitian(8, 40.0, seed=2)
        rep = expm_taylor(a, tol=1e-10)
        assert rep.matrix_multiplications >= 40

    def test_divergence_reported(self):
        # the partial sums overflow float64 long before 800^k/k! turns over
        with pytest.raises(ConvergenceError):
            expm_taylor(np.array([[800.0]]), tol=1e-14)

    @pytest.mark.parametrize("tol", [0.0, -1e-14, np.nan, np.inf, -np.inf])
    def test_rejects_bad_tol(self, tol):
        # a NaN tol used to run every term and then report no convergence,
        # and an infinite one returned the identity after no multiplication
        with pytest.raises(ValueError, match="tol must be positive"):
            expm_taylor(np.eye(2), tol=tol)


@pytest.mark.parametrize("expm", [expm_pade, expm_taylor])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
def test_expm_refuses_non_finite_matrices(expm, bad):
    a = np.zeros((3, 3), dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        expm(a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("expm", [expm_pade, expm_taylor])
def test_expm_refuses_an_overflowing_norm_without_a_warning(expm):
    # the 1-norm's column sum used to warn "overflow encountered in reduce"
    # before the refusal
    with pytest.raises(ValueError, match="^matrix must be finite, got 1-norm inf$"):
        expm(np.full((3, 3), 1e308))


class TestExpmPade:
    def test_zero_matrix(self):
        rep = expm_pade(np.zeros((4, 4)))
        np.testing.assert_allclose(rep.result, np.eye(4))
        assert rep.squarings == 0

    def test_squaring_count_formula(self):
        a = random_hermitian(6, 10.0, seed=3)
        rep = expm_pade(a)
        expected_k = int(np.ceil(np.log2(10.0 / PADE_NORM_BOUND)))
        assert rep.squarings == expected_k == 5

    def test_matches_eigendecomposition(self):
        a = random_hermitian(32, 25.0, seed=4)
        via_pade = expm_pade(a).result
        via_eigh = func_of_hermitian(a, np.exp)
        scale = np.max(np.abs(via_eigh))
        assert np.max(np.abs(via_pade - via_eigh)) / scale < 1e-8

    def test_unitary_for_i_times_hermitian(self):
        a = random_hermitian(16, 8.0, seed=5)
        u = expm_pade(1j * a).result
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10


class TestRouteAgreement:
    @pytest.mark.parametrize("dim,norm,seed", [(4, 1.0, 21), (16, 12.0, 22),
                                               (64, 50.0, 23)])
    def test_three_routes_pairwise(self, dim, norm, seed):
        a = random_hermitian(dim, norm, seed)
        r_pade = expm_pade(a).result
        r_taylor = expm_taylor(a, tol=1e-14).result
        r_eigh = func_of_hermitian(a, np.exp)
        scale = np.max(np.abs(r_eigh))
        assert np.max(np.abs(r_pade - r_taylor)) / scale < 1e-8
        assert np.max(np.abs(r_pade - r_eigh)) / scale < 1e-8
        assert np.max(np.abs(r_taylor - r_eigh)) / scale < 1e-8

    def test_cost_separation_trend(self):
        norms = [1.0, 4.0, 16.0, 64.0]
        taylor_counts = []
        pade_counts = []
        for i, nrm in enumerate(norms):
            a = random_hermitian(8, nrm, seed=30 + i)
            taylor_counts.append(expm_taylor(a, tol=1e-14).matrix_multiplications)
            pade_counts.append(expm_pade(a).matrix_multiplications)
        assert all(b > a for a, b in zip(taylor_counts, taylor_counts[1:]))
        for nrm, count in zip(norms, taylor_counts):
            assert count >= nrm / np.e
        for nrm, count in zip(norms, pade_counts):
            assert count <= np.log2(max(nrm, 1.0)) + 10
