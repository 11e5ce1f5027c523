"""Independent dense-linear-algebra reference implementations for the tests.

Everything here is deliberately O(N^2)/O(N^3): explicit DFT matrices,
circulant stencil matrices, scipy's scaling-and-squaring matrix exponential
(of an augmented matrix for the phi operator), and direct dense solves.
The exceptions are the physical norms, which sum over the nodes directly, and
the chord means, taken from G and Gp by divided differences and quadrature.
None of it shares code paths with the package under test.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from expsav.grids import GridSpec


def inner_l2(u, v):
    """Discrete L2 inner product <u, v> = cell * sum u_j conj(v_j) of two fields."""
    out = u.grid.cell * np.vdot(v.values, u.values)  # vdot conjugates its first argument
    if np.isrealobj(u.values) and np.isrealobj(v.values):
        return float(out.real)
    return complex(out)


def norm_l2(u) -> float:
    """Discrete L2 norm sqrt(<u, u>) of a field."""
    return float(np.sqrt(u.grid.cell * np.vdot(u.values, u.values).real))


def forward_diff_norm(u) -> float:
    """Periodic forward-difference seminorm ||d+ u|| of a field.

    1D: sqrt(h * sum |(u_{j+1} - u_j)/h|^2); in 2D both axis contributions
    are summed under the cell measure.
    """
    vals = u.values.reshape(u.grid.n)
    acc = 0.0
    for axis in range(u.grid.dim):
        diff = (np.roll(vals, -1, axis=axis) - vals) / u.grid.h[axis]
        acc += np.sum(np.abs(diff) ** 2)
    return float(np.sqrt(u.grid.cell * acc))


def naive_dft(u: np.ndarray) -> np.ndarray:
    """O(N^2) forward DFT matching the unnormalized convention."""
    n = u.size
    j = np.arange(n)
    mat = np.exp(-2j * np.pi * np.outer(j, j) / n)
    return mat @ u


def dft_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def idft_matrix(n: int) -> np.ndarray:
    return np.conj(dft_matrix(n)) / n


def dense_diagonal_operator(grid: GridSpec, multipliers: np.ndarray) -> np.ndarray:
    """Dense F^-1 diag(mult) F on flat fields (kron-composed per axis in 2D)."""
    if grid.dim == 1:
        n = grid.n[0]
        return idft_matrix(n) @ np.diag(multipliers) @ dft_matrix(n)
    n0, n1 = grid.n
    fwd = np.kron(dft_matrix(n0), dft_matrix(n1))
    inv = np.kron(idft_matrix(n0), idft_matrix(n1))
    return inv @ np.diag(multipliers) @ fwd


def circulant_second_difference(n: int, h: float) -> np.ndarray:
    """Periodic (1, -2, 1)/h^2 stencil as a dense matrix.

    The neighbours are added, not assigned: with n = 2 both are the same node.
    """
    mat = -2.0 * np.eye(n)
    idx = np.arange(n)
    mat[idx, (idx + 1) % n] += 1.0
    mat[idx, (idx - 1) % n] += 1.0
    return mat / h**2


def dense_fd_laplacian(grid: GridSpec) -> np.ndarray:
    if grid.dim == 1:
        return circulant_second_difference(grid.n[0], grid.h[0])
    n0, n1 = grid.n
    b0 = circulant_second_difference(n0, grid.h[0])
    b1 = circulant_second_difference(n1, grid.h[1])
    return np.kron(b0, np.eye(n1)) + np.kron(np.eye(n0), b1)


def gl_quadrature(n_points: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


def chord_mean_kg(problem, u_old: np.ndarray, u_new: np.ndarray) -> np.ndarray:
    """Mean of G' along the chord from u_old to u_new, from G and Gp alone.

    The divided difference (G(u_new) - G(u_old))/(u_new - u_old), whose
    rounding noise grows like eps/|du|; on chords shorter than 1e-3 a
    4-point Gauss rule on Gp along the chord (error O(du^8), noise O(eps)).
    """
    du = u_new - u_old
    nodes, weights = gl_quadrature(4)
    quad = sum(wt * problem.Gp(u_old + xi * du) for xi, wt in zip(nodes, weights))
    tiny = np.abs(du) < 1e-3
    divided = (problem.G(u_new) - problem.G(u_old)) / np.where(tiny, 1.0, du)
    return np.where(tiny, quad, divided)


def chord_mean_nls(u_old: np.ndarray, u_new: np.ndarray) -> np.ndarray:
    """Mean of |u|^2 u along the chord by the 4-point Gauss rule (exact: cubic integrand)."""
    nodes, weights = gl_quadrature(4)
    out = np.zeros_like(u_old)
    for xi, wt in zip(nodes, weights):
        u_xi = (1.0 - xi) * u_old + xi * u_new
        out += wt * (np.abs(u_xi) ** 2 * u_xi)
    return out


def phi_of(V: np.ndarray) -> np.ndarray:
    """integral_0^1 expm((1 - xi) V) dxi, the top-right block of
    expm([[V, I], [0, 0]]); a fixed quadrature rule loses digits once the
    integrand oscillates many times over [0, 1]."""
    n = V.shape[0]
    augmented = np.zeros((2 * n, 2 * n), dtype=V.dtype)
    augmented[:n, :n] = V
    augmented[:n, n:] = np.eye(n)
    return expm(augmented)[:n, n:]


def dense_wave_operators(grid: GridSpec, omega: float, tau: float):
    """exp(V) and phi(V) for V = tau * [[0, I], [omega^2 B2, 0]], as dense blocks."""
    n = grid.size
    b2 = dense_fd_laplacian(grid)
    V = tau * np.block([
        [np.zeros((n, n)), np.eye(n)],
        [omega**2 * b2, np.zeros((n, n))],
    ])
    E = expm(V)
    P = phi_of(V)
    blocks = lambda M: (M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:])
    return blocks(E), blocks(P)


def dense_kg_step(state, problem, omega: float, tau: float, operators=None):
    """Full-matrix reference for one wave-system SAV step (direct N x N solve);
    operators, if given, is dense_wave_operators(grid, omega, tau)."""
    grid = problem.grid
    cell = grid.cell
    (e11, e12, e21, e22), (p11, p12, p21, p22) = (
        operators or dense_wave_operators(grid, omega, tau))
    u, v, q = state.u.values, state.v.values, state.q
    uhat = u if state.u_prev is None else 1.5 * u - 0.5 * state.u_prev.values
    s2 = cell * float(np.sum(problem.G(uhat))) + problem.C0
    s = np.sqrt(s2)
    w = problem.Gp(uhat)

    zu = e11 @ u + e12 @ v
    zv = e21 @ u + e22 @ v
    phi12_w = p12 @ w
    gamma = (tau / (4.0 * s2)) * phi12_w
    g = zu - (tau * q / s) * phi12_w + gamma * (cell * (w @ u))
    u_new = np.linalg.solve(np.eye(grid.size) + np.outer(gamma, cell * w), g)
    q_new = q + cell * (w @ (u_new - u)) / (2.0 * s)
    v_new = zv - (tau * 0.5 * (q + q_new) / s) * (p22 @ w)
    return u_new, v_new, q_new


def dense_eavf_kg_step(state, problem, omega: float, tau: float, tol: float, max_iters: int,
                       gradient):
    """Dense fixed-point reference for the implicit wave baseline.

    Uses the caller-supplied chord gradient so the iteration is identical to
    the implementation's; only the operator applications differ.
    """
    grid = problem.grid
    (e11, e12, e21, e22), (_, p12, _, p22) = dense_wave_operators(grid, omega, tau)
    u, v = state.u.values, state.v.values
    zu = e11 @ u + e12 @ v
    zv = e21 @ u + e22 @ v
    u_iter = u
    for _ in range(max_iters):
        u_next = zu - tau * (p12 @ gradient(problem, u, u_iter))
        done = np.max(np.abs(u_next - u_iter)) < tol
        u_iter = u_next
        if done:
            break
    v_new = zv - tau * (p22 @ gradient(problem, u, u_iter))
    return u_iter, v_new


def dense_schroedinger_operators(grid: GridSpec, lam: np.ndarray, tau: float):
    """expm(i tau D2) and its step average for dense D2 = F^-1 diag(lam) F."""
    d2 = dense_diagonal_operator(grid, lam.astype(np.complex128))
    E = expm(1j * tau * d2)
    Sigma_op = phi_of(1j * tau * d2)
    return E, Sigma_op


def dense_nls_step(state, problem, lam: np.ndarray, tau: float):
    """Full-matrix reference for one Schroedinger SAV step (direct 2x2 solve)."""
    grid = problem.grid
    cell = grid.cell
    E, Sigma_op = dense_schroedinger_operators(grid, lam, tau)
    u, q = state.u.values, state.q
    uhat = u if state.u_prev is None else 1.5 * u - 0.5 * state.u_prev.values
    abs2 = np.abs(uhat) ** 2
    s = np.sqrt(cell * float(np.sum(abs2**2)) + problem.C0)
    gamma = abs2 * uhat / s

    phi_gamma = 1j * problem.beta * tau * (Sigma_op @ gamma)
    ip = lambda a, b: cell * np.sum(a * np.conj(b))  # <a, b>
    # u' = b + (x + y)/2 phi_gamma with x = <gamma, u' - u> and y = <u' - u, gamma>,
    # so x - a/2 (x + y) = <gamma, b - u> and y - c/2 (x + y) = <b - u, gamma>,
    # solved for x + y and x - y: the unknowns <gamma, u'> cancel against
    # <gamma, u>, and the system in x and y has condition ~ |a|^2
    b = E @ u + phi_gamma * q
    a = ip(gamma, phi_gamma)
    c = ip(phi_gamma, gamma)
    mat = np.array([[1.0 - 0.5 * (a + c), 0.0], [-0.5 * (a - c), 1.0]])
    r1, r2 = ip(gamma, b - u), ip(b - u, gamma)
    x_plus_y, _ = np.linalg.solve(mat, np.array([r1 + r2, r1 - r2]))
    u_new = 0.5 * phi_gamma * x_plus_y + b
    q_half = q + 0.5 * x_plus_y
    q_new = 2.0 * q_half.real - q
    return u_new, q_new


def _sin_over_x(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = np.sin(x) / x
    s1[x == 0.0] = 1.0
    return s1


def kg_tables_per_mode(grid: GridSpec, lam: np.ndarray, omega: float, tau: float) -> dict:
    """The wave tables' formulas evaluated on every mode of the half spectrum.

    The same operands in the same order as the builder, with no mirror, so
    the arrays are the builder's bit for bit.
    """
    n_last = grid.n[-1]
    half = lam.reshape(-1, n_last)[:, : n_last // 2 + 1].ravel()
    mu2 = omega * omega * (-half)
    mu = np.sqrt(mu2)
    x = tau * mu
    s1 = _sin_over_x(x)
    return {"e11": np.cos(x), "e12": tau * s1, "e21": -tau * mu2 * s1,
            "p12": tau * (0.5 * _sin_over_x(0.5 * x) ** 2)}


def nls_tables_per_mode(lam: np.ndarray, tau: float) -> dict:
    """exp(i tau lam) and sigma evaluated on every mode, as the builder's formulas."""
    x = tau * lam
    return {"expD": np.exp(1j * x), "sigma": np.exp(0.5j * x) * _sin_over_x(0.5 * x)}
