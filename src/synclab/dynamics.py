"""Right-hand sides of the three flows, plus cross-model consistency checks.

Tangent vectors are plain arrays with the same shape as the state part of the
corresponding configuration (dtheta, dx rows, dU matrices).  All evaluators
are pure functions of immutable inputs; none allocates O(N^2) temporaries --
the all-to-all sums collapse onto the centroid.

Each formula exists once, in the kernel that :func:`make_rhs` binds.  Binding
settles everything that does not change during an integration -- the model's
constants, kappa/N, the flavor, whether Omega or H is shared, and which terms
drop: a zero shared drive, a zero nu, the product by V = I and, on the
sphere, the multiply by kappa = 1 -- so each stage makes only the numpy calls
its configuration needs, through the ufuncs and ``np.dot`` directly.

Bitwise contract: the kernels perform the same floating-point operations in
the same order as the plain formulas (``x.mean(axis=0)``, ``@`` on 2-d
operands, ``np.imag``/``np.real``) less the dropped terms, which change no
nonzero number but may flip the sign of a zero (or of a zero real or
imaginary part).  A step adds the tangent to the state, so a trajectory
differs only where a state entry is -0.0, which no step creates but by
underflow.  ``tests/test_hotpath_identity.py`` holds the plain formulas as
the oracle; a rewrite that changes any other bit is a behaviour change.

Sign convention for the cosine flavor: the coupling is
cos(theta_j - theta_k + alpha), equivalently cos(theta_k - theta_j - alpha).
With this convention the functional I * exp(tan(alpha) * sum theta) is
conserved, the total phase is non-decreasing, and positive alpha with initial
diameter below 2*alpha synchronizes while negative alpha with distinct phases
disperses, which is the certified behavior of the frustrated cosine flow.
"""

from __future__ import annotations

import numpy as np

from .state import (
    Config,
    Flavor,
    PhaseConfig,
    SphereConfig,
    UnitaryConfig,
    UNITARY_TOL,
    left_mul_matrix,
    split_quaternion,
)


def make_rhs(cfg: Config):
    """Bind the parameters of ``cfg`` into a state-array -> tangent function.

    Everything the module docstring lists as bound, the dropped terms too,
    is settled here, once; the returned function runs only the arithmetic.
    It is meant for states of the configuration's own size N.
    """
    if isinstance(cfg, PhaseConfig):
        return _bind_phase(cfg)
    if isinstance(cfg, SphereConfig):
        return _bind_sphere(cfg)
    if isinstance(cfg, UnitaryConfig):
        return _bind_unitary(cfg)
    raise TypeError(f"not a model configuration: {type(cfg)!r}")


def _scalars(dtype, *values) -> list[np.ndarray]:
    """``values`` as 0-d arrays of ``dtype``, the type a Python scalar takes
    against a state array: they round the same, without being converted
    again on every call."""
    return [np.array(c, dtype=dtype) for c in values]


def _bind_phase(cfg: PhaseConfig):
    nu = cfg.nu if cfg.nu.any() else None
    sine = cfg.flavor is Flavor.SINE
    alpha, k_n = _scalars(float, cfg.alpha, cfg.kappa / cfg.n)
    i, minus_i = _scalars(complex, 1j, -1j)
    exp, add_reduce = np.exp, np.add.reduce

    def rhs(theta):
        s = add_reduce(exp(i * theta))
        if sine:
            dtheta = k_n * (exp(i * (alpha - theta)) * s).imag
        else:
            dtheta = k_n * (exp(minus_i * (alpha + theta)) * s).real
        return dtheta if nu is None else nu + dtheta
    return rhs


def _bind_sphere(cfg: SphereConfig):
    v = None if cfg.a == 1.0 and not cfg.w.any() else cfg.v
    n, kappa = _scalars(float, cfg.n, cfg.kappa)
    gain = None if cfg.kappa == 1.0 else kappa
    dot, add_reduce = np.dot, np.add.reduce
    drive = None
    if not cfg.shared_omega:
        omega = cfg.omega

        def drive(x):
            return np.einsum("nij,nj->ni", omega, x)
    elif cfg.omega.any():
        omega_t = cfg.omega.T

        def drive(x):
            return dot(x, omega_t)

    def rhs(x):
        # sum_k V x_k = N * V x_c, so the coupling costs one small matvec
        vxc = add_reduce(x, 0) / n
        vxc = vxc if v is None else dot(v, vxc)
        dx = vxc - dot(x, vxc)[:, None] * x
        dx = dx if gain is None else gain * dx
        return dx if drive is None else drive(x) + dx
    return rhs


def _bind_unitary(cfg: UnitaryConfig):
    h = cfg.h
    v = None if np.array_equal(cfg.v, np.eye(cfg.d)) else cfg.v
    n, half_kappa, minus_i = _scalars(complex, cfg.n, cfg.kappa / 2.0, -1j)
    dot, add_reduce = np.dot, np.add.reduce
    drive = None
    if not cfg.shared_h:
        def drive(u):
            return minus_i * (h @ u)
    elif h.any():
        def drive(u):
            return minus_i * np.einsum("ab,jbc->jac", h, u)

    def rhs(u):
        # dU_j = -i H_j U_j + (kappa/2N) sum_k (V U_k - U_j (V U_k)^* U_j)
        # with sum_k V U_k = N * V U_c.
        vuc = add_reduce(u, 0) / n
        vuc = vuc if v is None else dot(v, vuc)
        du = half_kappa * (vuc - u @ vuc.conj().T @ u)
        return du if drive is None else drive(u) + du
    return rhs


def state_of(cfg: Config) -> np.ndarray:
    """The dynamical state array of a configuration."""
    if isinstance(cfg, PhaseConfig):
        return cfg.theta
    if isinstance(cfg, SphereConfig):
        return cfg.x
    if isinstance(cfg, UnitaryConfig):
        return cfg.u
    raise TypeError(f"not a model configuration: {type(cfg)!r}")


# ---------------------------------------------------------------------------
# structural checks


def sphere_tangency_residual(cfg: SphereConfig) -> float:
    """max_i |<dx_i, x_i>|; zero for a flow tangent to the sphere."""
    dx = make_rhs(cfg)(cfg.x)
    return float(np.max(np.abs(np.einsum("ni,ni->n", dx, cfg.x))))


def unitary_tangency_residual(cfg: UnitaryConfig) -> float:
    """max_j ||dU_j U_j^* + U_j dU_j^*||_F; zero when U_j U_j^* is conserved."""
    du = make_rhs(cfg)(cfg.u)
    ustar = np.conj(np.swapaxes(cfg.u, 1, 2))
    sym = du @ ustar + np.conj(np.swapaxes(du @ ustar, 1, 2))
    return float(np.max(np.linalg.norm(sym, axis=(1, 2))))


def right_translate(cfg: UnitaryConfig, ell: np.ndarray) -> UnitaryConfig:
    """Replace every U_j by U_j L for a unitary L.

    The matrix flow commutes with this operation: the rhs of the translated
    configuration equals the translated rhs.
    """
    ell = np.asarray(ell, dtype=complex)
    if ell.shape != (cfg.d, cfg.d):
        raise ValueError("translation matrix has the wrong shape")
    if np.linalg.norm(ell @ ell.conj().T - np.eye(cfg.d)) > UNITARY_TOL:
        raise ValueError("translation matrix is not unitary within tolerance")
    return cfg.with_state(cfg.u @ ell)


# ---------------------------------------------------------------------------
# d=2 matrix model vs angle+sphere system
#
# Writing U_j = e^{-i theta_j} A(x_j) (see state.py) and V = A(v) with
# ||v|| = 1, the matrix flow pushes forward to
#
#   d theta_j = nu_j + (kappa/N) sum_k sin(theta_k - theta_j) <x_j, Vt x_k>
#   d x_j     = Om_j x_j + (kappa/N) sum_k cos(theta_k - theta_j)
#                                   (Vt x_k - <x_j, Vt x_k> x_j)
#
# where Vt is the left-multiplication matrix of v and Om_j = -L_{(omega_j,0)}
# comes from the traceless part of H_j = sum_k omega_j^k sigma_k + nu_j I.


def _decompose_hamiltonian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split H = sum omega^k sigma_k + nu I over any leading axes; returns
    (nu, Omega), Omega the 4x4 skew generator of each H."""
    nu = (h[..., 0, 0].real + h[..., 1, 1].real) / 2.0
    w1 = (h[..., 0, 0].real - h[..., 1, 1].real) / 2.0
    w2 = h[..., 1, 0].imag
    w3 = h[..., 1, 0].real
    # left_mul_matrix puts the matrix axes first and any leading axes last
    l_w = left_mul_matrix(np.array([w1, w2, w3, np.zeros_like(w1)]))
    return nu, -np.moveaxis(l_w, (0, 1), (-2, -1))


def reduce_matrix_to_sphere_check(cfg: UnitaryConfig) -> float:
    """Max discrepancy between the pushed-forward d=2 matrix rhs and the
    explicit (theta, x) right-hand sides.

    Requires d = 2 and V in SU(2), i.e. V = A(v) with sum v_k^2 = 1.
    """
    if cfg.d != 2:
        raise ValueError("the parametrization check requires d = 2")
    pv, qv = split_quaternion(cfg.v)
    if np.max(np.abs(qv)) > 1e-8 or abs(np.linalg.norm(pv) - 1.0) > 1e-8:
        raise ValueError("V must be an SU(2) matrix in Pauli coordinates")
    vt = left_mul_matrix(pv)

    n = cfg.n
    thetas = -0.5 * np.angle(np.linalg.det(cfg.u))
    phases = np.exp(1j * thetas)[:, None, None]
    xs, _ = split_quaternion(phases * cfg.u)

    # pushforward of the matrix tangent through the parametrization
    push_x, q = split_quaternion(phases * make_rhs(cfg)(cfg.u))
    push_theta = -np.einsum("ja,ja->j", q, xs)

    # explicit (theta, x) right-hand sides
    nus, omegas = _decompose_hamiltonian(cfg.h)
    vx = xs @ vt.T
    inner = np.einsum("ji,ki->jk", xs, vx)        # <x_j, Vt x_k>
    dth = thetas[None, :] - thetas[:, None]       # theta_k - theta_j at [j,k]
    f_theta = nus + (cfg.kappa / n) * np.sum(np.sin(dth) * inner, axis=1)
    cosw = np.cos(dth)
    f_x = ((omegas @ xs[..., None])[..., 0]
           + (cfg.kappa / n) * (cosw @ vx - np.sum(cosw * inner, axis=1)[:, None] * xs))

    return float(max(np.max(np.abs(push_theta - f_theta)),
                     np.max(np.abs(push_x - f_x))))
