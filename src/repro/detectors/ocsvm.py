"""One-Class SVM (Schölkopf et al., Neural Computation 2001) — from scratch.

The ν-formulation estimates the support of the training distribution by
separating the data from the origin in feature space.  Its dual is the
quadratic program::

    minimize    (1/2) alpha' Q alpha
    subject to  0 <= alpha_i <= 1 / (nu * n),   sum_i alpha_i = 1

with ``Q_ij = k(x_i, x_j)``.  The decision function is
``f(x) = sum_i alpha_i k(x_i, x) - rho`` with ``f(x) < 0`` flagging
outliers; ν upper-bounds the fraction of training outliers and
lower-bounds the fraction of support vectors (the ν-property, asserted
in our tests).

The solver is a Sequential Minimal Optimization (SMO) loop with
maximal-violating-pair working-set selection, exactly the strategy of
LIBSVM for this problem class: at each step the pair

    i = argmin { grad_i : alpha_i < C },   j = argmax { grad_j : alpha_j > 0 }

is updated analytically while preserving both constraints.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import OutlierDetector
from repro.detectors.kernels import make_kernel, resolve_gamma
from repro.exceptions import ConvergenceError, ValidationError
from repro.utils.validation import check_in_range, check_int, check_matrix, check_positive

__all__ = ["OneClassSVM", "smo_solve"]


def smo_solve(
    Q: np.ndarray,
    upper_bound: float,
    tol: float = 1e-6,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, float, int]:
    """Solve ``min 1/2 a'Qa`` s.t. ``sum a = 1, 0 <= a <= upper_bound``.

    Parameters
    ----------
    Q:
        Symmetric PSD kernel matrix ``(n, n)``.
    upper_bound:
        The box constraint ``C = 1/(nu n)``; must satisfy
        ``n * upper_bound >= 1`` for feasibility.
    tol:
        KKT violation tolerance (duality-gap style stopping rule).
    max_iter:
        Hard cap on SMO iterations.

    Returns
    -------
    (alpha, rho, n_iter):
        Optimal multipliers, offset ``rho``, iterations used.

    Notes
    -----
    An iteration costs two O(n) selections and one O(n) gradient update;
    the rest is Python scalar work.  So the loop keeps the masked
    gradients of the working-set selection up to date instead of
    rebuilding them, re-checks the box only at the two multipliers that
    moved, reads the update's Gram columns as contiguous rows of
    ``Q.T``, adds the update to the gradient and both masked copies as
    one ``(3, n)`` array, and keeps the multipliers, their eligibility
    and ``diag(Q)`` in Python lists and floats.  Each of these leaves
    every selected pair, step and output bit unchanged.
    """
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValidationError(f"Q must be square, got shape {Q.shape}")
    C = float(upper_bound)
    if n * C < 1.0 - 1e-12:
        raise ValidationError(
            f"infeasible problem: n * upper_bound = {n * C:.6g} < 1 "
            "(nu must satisfy nu <= 1)"
        )

    # Feasible start: fill the first floor(1/C) coordinates at the bound,
    # the remainder goes to the next coordinate (Schölkopf's suggestion).
    alpha = np.zeros(n)
    n_full = int(np.floor(1.0 / C + 1e-12))
    alpha[:n_full] = C
    remainder = 1.0 - n_full * C
    if remainder > 1e-15 and n_full < n:
        alpha[n_full] = remainder

    grad = Q @ alpha
    eps = 1e-12
    below_bound = C - eps
    diag = Q.diagonal().tolist()
    # Row k of Q.T is column k of Q, contiguous for the gradient update.
    Q_cols = list(np.ascontiguousarray(Q.T))
    delta = np.empty(n)
    can_up = (alpha < below_bound).tolist()
    can_down = (alpha > eps).tolist()
    n_up, n_down = sum(can_up), sum(can_down)
    # The gradient and its two masked copies, ineligible entries at -/+inf,
    # as the rows of one array: each update adds the same delta to all
    # three (inf stays inf), so the masked rows equal masked copies of
    # ``grad`` bit for bit without rebuilding them every iteration.
    G = np.stack((grad, np.where(can_up, grad, np.inf), np.where(can_down, grad, -np.inf)))
    grad, grad_up, grad_down = G
    alpha = alpha.tolist()
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if not n_up or not n_down:
            break
        i = int(grad_up.argmin())
        j = int(grad_down.argmax())
        # Scalar step math in Python floats: the same IEEE doubles as
        # NumPy scalars, without their per-operation overhead.
        violation = grad.item(j) - grad.item(i)
        if violation <= tol:
            break
        a_i, a_j = alpha[i], alpha[j]
        curvature = diag[i] + diag[j] - 2.0 * Q.item(i, j)
        if curvature <= eps:
            # Flat direction: move as far as the box allows.
            step = min(C - a_i, a_j)
        else:
            step = min(violation / curvature, C - a_i, a_j)
        if step <= eps:
            break
        a_i += step
        a_j -= step
        alpha[i], alpha[j] = a_i, a_j
        np.subtract(Q_cols[i], Q_cols[j], out=delta)
        delta *= step
        G += delta
        # Only alpha_i and alpha_j moved: update their eligibility.  An
        # entry that stays eligible already equals ``grad`` in its row.
        for k, a_k in ((i, a_i), (j, a_j)):
            up, down = a_k < below_bound, a_k > eps
            if up != can_up[k]:
                can_up[k] = up
                n_up += 1 if up else -1
                grad_up[k] = grad.item(k) if up else np.inf
            if down != can_down[k]:
                can_down[k] = down
                n_down += 1 if down else -1
                grad_down[k] = grad.item(k) if down else -np.inf
    else:
        raise ConvergenceError(
            f"SMO did not converge within {max_iter} iterations "
            f"(violation {violation:.3g} > tol {tol:.3g})"
        )

    alpha = np.array(alpha)
    # Offset rho: average gradient over free support vectors; if none are
    # free, take the midpoint of the bounding gradients (LIBSVM rule).
    free = (alpha > eps) & (alpha < C - eps)
    if free.any():
        rho = float(np.mean(grad[free]))
    else:
        upper = grad[alpha <= eps]
        lower = grad[alpha >= C - eps]
        hi = float(np.min(upper)) if upper.size else float(np.max(grad))
        lo = float(np.max(lower)) if lower.size else float(np.min(grad))
        rho = 0.5 * (hi + lo)
    return alpha, rho, iteration


class OneClassSVM(OutlierDetector):
    """ν One-Class SVM with an SMO dual solver.

    Parameters
    ----------
    nu:
        The ν parameter in (0, 1]: an upper bound on the training
        outlier fraction and lower bound on the support-vector fraction.
        The paper tunes it by 5-fold cross-validation (Sec. 4.3).
    kernel:
        ``'rbf'`` (default), ``'linear'``, ``'poly'`` or ``'sigmoid'``.
    gamma:
        Kernel width: ``'scale'`` (default), ``'auto'`` or a float.
    degree, coef0:
        Polynomial / sigmoid kernel parameters.
    tol, max_iter:
        SMO stopping controls.
    """

    def __init__(
        self,
        nu: float = 0.1,
        kernel: str = "rbf",
        gamma="scale",
        degree: int = 3,
        coef0: float = 0.0,
        tol: float = 1e-6,
        max_iter: int = 100_000,
        contamination: float | None = None,
    ):
        super().__init__(contamination=contamination)
        self.nu = check_in_range(nu, 0.0, 1.0, "nu", inclusive=(False, True))
        # An unknown kernel or a bad gamma fails here, not at the first fit.
        make_kernel(kernel, 1.0)
        if not (isinstance(gamma, str) and gamma in ("scale", "auto")):
            check_positive(gamma, "gamma")
        self.kernel = kernel
        self.gamma = gamma
        self.degree = check_int(degree, "degree", minimum=1)
        self.coef0 = float(coef0)
        self.tol = check_positive(tol, "tol")
        self.max_iter = check_int(max_iter, "max_iter", minimum=1)
        self.alpha_: np.ndarray | None = None
        self.rho_: float | None = None
        self.support_: np.ndarray | None = None
        self.support_vectors_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None
        self.n_iter_: int | None = None
        self._kernel_fn = None

    def _fit(self, X: np.ndarray) -> None:
        self._solve(X, *self._gram(X))

    def _gram(self, X: np.ndarray) -> tuple[float, np.ndarray]:
        """Resolve gamma on the training rows; return it with their Gram matrix."""
        if X.shape[0] < 2:
            raise ValidationError("OneClassSVM needs at least 2 training rows")
        gamma_value = resolve_gamma(self.gamma, X)
        kernel_fn = make_kernel(self.kernel, gamma_value, self.degree, self.coef0)
        return gamma_value, kernel_fn(X, X)

    def _solve(self, X: np.ndarray, gamma_value: float, Q: np.ndarray) -> None:
        """Fit on the training rows ``X`` given their Gram matrix ``Q``."""
        n = X.shape[0]
        self._gamma_value = gamma_value
        self._kernel_fn = make_kernel(self.kernel, gamma_value, self.degree, self.coef0)
        upper = 1.0 / (self.nu * n)
        alpha, rho, n_iter = smo_solve(Q, upper, tol=self.tol, max_iter=self.max_iter)
        self.alpha_ = alpha
        self.rho_ = rho
        self.n_iter_ = n_iter
        sv_mask = alpha > 1e-10
        self.support_ = np.nonzero(sv_mask)[0]
        self.support_vectors_ = X[sv_mask]
        self.dual_coef_ = alpha[sv_mask]

    def raw_decision(self, X) -> np.ndarray:
        """Schölkopf's signed decision ``f(x)`` (negative = outlier)."""
        X = self._check_fitted_input(X)
        gram = self._kernel_fn(X, self.support_vectors_)
        return gram @ self.dual_coef_ - self.rho_

    def _score(self, X: np.ndarray) -> np.ndarray:
        # Outlyingness convention: higher = more anomalous.
        gram = self._kernel_fn(X, self.support_vectors_)
        return self.rho_ - gram @ self.dual_coef_

    def _export_config(self) -> dict:
        config = super()._export_config()
        config.update(
            nu=self.nu,
            kernel=self.kernel,
            gamma=self.gamma if isinstance(self.gamma, str) else float(self.gamma),
            degree=self.degree,
            coef0=self.coef0,
            tol=self.tol,
            max_iter=self.max_iter,
        )
        return config

    def _export_fitted(self) -> dict:
        return {
            # The resolved numeric gamma, not the 'scale'/'auto' spec: the
            # heuristics depend on the training matrix, which is not kept.
            "gamma_value": float(self._gamma_value),
            "rho": float(self.rho_),
            "n_iter": int(self.n_iter_),
            "alpha": self.alpha_,
            "support": self.support_,
            "support_vectors": self.support_vectors_,
            "dual_coef": self.dual_coef_,
        }

    def _import_fitted(self, state: dict) -> None:
        self._gamma_value = float(state["gamma_value"])
        self._kernel_fn = make_kernel(self.kernel, self._gamma_value, self.degree, self.coef0)
        self.rho_ = float(state["rho"])
        self.n_iter_ = int(state["n_iter"])
        self.alpha_ = np.asarray(state["alpha"], dtype=np.float64)
        self.support_ = np.asarray(state["support"], dtype=np.int64)
        self.support_vectors_ = np.asarray(state["support_vectors"], dtype=np.float64)
        self.dual_coef_ = np.asarray(state["dual_coef"], dtype=np.float64)

    def _natural_threshold(self) -> float:
        # f(x) = 0 boundary, i.e. score 0 on the flipped scale.
        return 0.0


def fit_shared_gram(models, X) -> None:
    """Fit OneClassSVMs that differ only in ``nu`` on the same rows ``X``.

    The Gram matrix depends on the rows and the kernel alone (``gamma``
    ``'scale'``/``'auto'`` resolves from ``X``), so it is built once and
    every model runs the solve of :meth:`OneClassSVM.fit` on it.  This is
    how :func:`repro.evaluation.tune_nu` fits its ν candidates per fold.
    """
    X = check_matrix(X, "X")
    gamma_value, Q = models[0]._gram(X)
    for model in models:
        model._solve(X, gamma_value, Q)
        model._finish_fit(X)
