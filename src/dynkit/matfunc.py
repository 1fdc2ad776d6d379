"""Dense-matrix functional calculus.

Three routes to a matrix function: eigendecomposition for hermitian inputs,
a truncated Taylor series for the exponential (O(||A||) multiplications),
and a diagonal Pade approximant with scaling and squaring
(O(log ||A||) multiplications).  The exponential routines report their
matrix-multiplication counts so the complexity separation can be measured.
``_hermitian_solve`` is the package's one dense eigensolve; the spectra of
``stationary`` and ``open_systems`` go through its checks too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, HermiticityError
from .steps import require

#: Norm bound below which the diagonal Pade approximant is applied directly.
PADE_NORM_BOUND = 0.5


@dataclass(frozen=True)
class ExpmReport:
    """Result of a matrix exponential together with its operation counts."""

    result: np.ndarray
    matrix_multiplications: int
    squarings: int

    def __post_init__(self):
        if self.matrix_multiplications < 0 or self.squarings < 0:
            raise ValueError("operation counts must be nonnegative")


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _finite_norm(a: np.ndarray) -> float:
    """||A||_1 of a square A; ValueError if it is NaN or inf, as any NaN or inf entry makes it."""
    norm = np.linalg.norm(a, 1)
    if not norm < np.inf:
        raise ValueError(f"matrix must be finite, got 1-norm {norm}")
    return norm


#: Elements per row block of ``_hermiticity_defect`` and ``_hermitian_solve``'s scale.
_DEFECT_BLOCK = 2 ** 13


def _row_blocks(n: int) -> list:
    """Slices of whole rows of an n x n matrix, about ``_DEFECT_BLOCK`` elements each."""
    rows = max(1, _DEFECT_BLOCK // max(n, 1))
    return [slice(i, i + rows) for i in range(0, n, rows)]


def _hermiticity_defect(h: np.ndarray) -> float:
    """max |h - h^H| of a square ``h``, NaN if any difference is NaN.

    Taken over blocks of rows, each difference written into the block of
    h^H it subtracts, so no n x n temporary is made; each block difference
    is the whole-matrix one's rows, so the max is the same bits.
    """
    maxima = []
    for s in _row_blocks(h.shape[0]):
        d = np.conj(h[:, s].T)  # rows s of h^H
        np.subtract(h[s], d, out=d)
        maxima.append(np.max(np.abs(d)))
    # np.max, not max(): the block maxima keep a NaN
    return float(np.max(maxima))


def _hermitian_solve(h: np.ndarray, vectors: bool, tol: float):
    """Eigenvalues, and with ``vectors`` the eigenvectors, of a dense hermitian ``h``.

    The one dense eigensolve of the package.  ``h`` must be finite and
    hermitian to ``tol`` times max(1, max|h|); eigensolver non-convergence is
    raised, never silently approximated.  Eigenvalues ascend.  A real ``h``
    goes to LAPACK's real symmetric driver, a complex one to the hermitian
    driver; numpy picks it from the dtype, which is raised to double
    precision at least.
    """
    h = np.asarray(h)
    h = h.astype(np.result_type(h.dtype, np.float64), copy=False)
    # NaN or inf for a non-finite h; taken over row blocks, exact as a whole-matrix max
    scale = np.max([np.max(np.abs(h[s])) for s in _row_blocks(h.shape[0])],
                   initial=1.0)
    if not (scale < np.inf and _hermiticity_defect(h) <= tol * scale):
        raise HermiticityError("eigensolve requires a finite hermitian matrix")
    try:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


def func_of_hermitian(a: np.ndarray, f: Callable) -> np.ndarray:
    """f(A) = U diag(f(lambda_1), ...) U^H from the eigendecomposition of hermitian A.

    Eigenvalues are taken in ascending order; the result is hermitian whenever
    f is real-valued on the spectrum.
    """
    w, u = _hermitian_solve(_check_square(a), vectors=True, tol=1e-12)
    fw = np.asarray(f(w), dtype=complex)
    return (u * fw) @ u.conj().T


def expm_taylor(a: np.ndarray, tol: float = 1e-14) -> ExpmReport:
    """exp(A) by partial sums of sum_k A^k / k!.

    Terms are accumulated until the norm of the added term drops to ``tol``.
    The number of matrix multiplications grows like O(||A||), which is why
    this route only serves as a cross-check oracle.
    """
    a = _check_square(a)
    require("tol", tol, above=0)
    n = a.shape[0]
    norm = _finite_norm(a)
    result = np.eye(n, dtype=complex)
    if norm <= tol:
        return ExpmReport(result, 0, 0)
    max_terms = int(10 * norm) + 100
    term = a.copy()  # A^1 / 1! costs no multiplication
    result = result + term
    mults = 0
    for k in range(2, max_terms + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            term = term @ a / k
            mults += 1
            result = result + term
            term_norm = np.linalg.norm(term, 1)
        if not np.isfinite(term_norm):
            raise ConvergenceError(
                f"Taylor series for exp overflowed at term {k} (||A|| = {norm:.3e})"
            )
        if term_norm <= tol:
            return ExpmReport(result, mults, 0)
    raise ConvergenceError(
        f"Taylor series for exp did not reach tol={tol} within {max_terms} terms"
    )


def _pade_coefficients(m: int) -> np.ndarray:
    # b_k = (2m - k)! m! / ((2m)! k! (m - k)!) for the diagonal [m/m] approximant
    c = np.zeros(m + 1)
    c[0] = 1.0
    for k in range(1, m + 1):
        c[k] = c[k - 1] * (m - k + 1) / (k * (2 * m - k + 1))
    return c


def _pade_apply(b: np.ndarray) -> tuple[np.ndarray, int]:
    """Diagonal [6/6] Pade approximant of exp(B); returns (value, mult count)."""
    n = b.shape[0]
    c = _pade_coefficients(6)
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b2 @ b4
    even = c[6] * b6 + c[4] * b4 + c[2] * b2 + c[0] * np.eye(n)
    odd = b @ (c[5] * b4 + c[3] * b2 + c[1] * np.eye(n))
    mults = 4
    numer = even + odd
    denom = even - odd
    try:
        value = np.linalg.solve(denom, numer)
    except np.linalg.LinAlgError as exc:
        # cannot happen for ||B|| <= PADE_NORM_BOUND; treat as a bug signal
        raise np.linalg.LinAlgError(
            f"singular Pade denominator at ||B||={np.linalg.norm(b, 1):.3e}: {exc}"
        ) from exc
    return value, mults


def expm_pade(a: np.ndarray) -> ExpmReport:
    """exp(A) by the diagonal Pade approximant with scaling and squaring.

    If ||A|| exceeds the applicability bound, the matrix is scaled by 2^K with
    K = ceil(log2(||A|| / bound)), the approximant is applied to A / 2^K, and
    the result is squared K times.  Total work is O(log ||A||) matrix
    multiplications.
    """
    a = _check_square(a)
    norm = _finite_norm(a)
    if norm == 0.0:
        return ExpmReport(np.eye(a.shape[0], dtype=complex), 0, 0)
    k = 0
    if norm > PADE_NORM_BOUND:
        k = int(np.ceil(np.log2(norm / PADE_NORM_BOUND)))
    value, mults = _pade_apply(a / 2.0 ** k)
    for _ in range(k):
        value = value @ value
    return ExpmReport(value, mults + k, k)
