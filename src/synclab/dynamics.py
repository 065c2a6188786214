"""Right-hand sides of the three flows, plus cross-model consistency checks.

Tangent vectors are plain arrays with the same shape as the state part of the
corresponding configuration (dtheta, dx rows, dU matrices).  No evaluator
allocates O(N^2) temporaries -- the all-to-all sums collapse onto the
centroid.

Each formula exists once, in the kernel that :func:`make_rhs` binds.  Binding
settles everything that does not change during an integration -- the model's
constants, kappa/N, the flavor, whether Omega or H is shared, and which terms
drop: a zero shared drive, a zero nu, the product by V = I and, on the
sphere, the multiply by kappa = 1 -- so each stage makes only the numpy calls
its configuration needs, through the ufuncs, ``np.add.accumulate`` and
``np.dot`` directly.  The sphere kernel sums its rows into the centroid as
the last row of a running sum, ``np.add.accumulate`` down the rows: the
sequential sum ``np.add.reduce`` makes down them, without the reduction's
inner-loop call per row (2.2 µs against 3.6 µs at N = 200).

Binding also allocates the kernel's scratch: the running row sums and the
centroid, the phase sum,
the complex rows and the products the formula passes through.  A call
writes its intermediates there, each output passed positionally (an
``out=`` keyword costs numpy some 40 ns to parse, a tenth of a ufunc call
at N = 8), and allocates only the tangent it returns, so ``rhs(y)`` still returns a new array that no later call
touches, which a caller may keep or wrap.  A bound kernel therefore takes
only states of its configuration's shape (a batch kernel the stack of its
bound size), and it is not reentrant: two threads must not share one.  Real
+, -, x, / and sqrt round the same in place, but a complex product does
not: numpy 2.4.6 routes a complex multiply whose output is one of its
inputs to another loop, and a 1-element one (an N = 1 circle, a U(1) state)
differed from its out-of-place result in 867 of 2 000 seeded draws, none
at 2 to 8 elements.  So a complex product or exponential writes only into a
buffer that is none of its inputs.

Bitwise contract: the kernels perform the same floating-point operations in
the same order as the plain formulas (``x.mean(axis=0)``, whose row sum is
sequential down the rows of the C-ordered states the integrators pass, as
the running sum is; ``@`` on 2-d operands; ``np.imag``/``np.real``) less
the dropped terms, which change no nonzero number but may flip the sign of
a zero (or of a zero real or imaginary part).  A step adds the tangent to
the state, so a trajectory differs only where a state entry is -0.0, which
no step creates but by underflow.  ``tests/test_hotpath_identity.py`` holds
the plain formulas as the oracle; a rewrite that changes any other bit is a
behaviour change.

:func:`make_batch_rhs` binds a batch of circle or sphere configurations of
one shape into a kernel on their stacked states, the same kernel bound
stacked: the circle's takes its constants as (B, 1) columns and the phase
sum along the last axis, the sphere's its constants as (B, 1, 1) blocks and
each ``np.dot`` as a stacked ``np.matmul``, which rounds like it (a fact
about this numpy, which ``tests/test_batch.py`` checks).  Each member's
tangent equals its single kernel's bit for bit, up to the sign of the zeros
that a term dropped for one member but kept for the batch leaves.

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
    is settled here, once, with the scratch the returned function writes
    into; that function runs only the arithmetic.  It takes only states of
    the configuration's own shape and is not reentrant.
    """
    if isinstance(cfg, PhaseConfig):
        return _bind_phase([cfg], stacked=False)
    if isinstance(cfg, SphereConfig):
        return _bind_sphere([cfg], stacked=False)
    if isinstance(cfg, UnitaryConfig):
        return _bind_unitary(cfg)
    raise TypeError(f"not a model configuration: {type(cfg)!r}")


def _scalars(dtype, *values) -> list[np.ndarray]:
    """``values`` as 0-d arrays of ``dtype``, the type a Python scalar takes
    against a state array: they round the same, without being converted
    again on every call."""
    return [np.array(c, dtype=dtype) for c in values]


def _bind_phase(cfgs: list[PhaseConfig], stacked: bool):
    """The kernel of one configuration on its (N,) phases, its constants 0-d,
    or with ``stacked`` of a batch of one flavor on their (B, N) stack, its
    constants (B, 1) columns and its nu added when any member's is nonzero."""
    nu = np.stack([c.nu for c in cfgs]) if stacked else cfgs[0].nu
    nu = nu if nu.any() else None
    sine = cfgs[0].flavor is Flavor.SINE
    shape = (len(cfgs), 1) if stacked else ()
    column = lambda values: np.array(values, dtype=float).reshape(shape)
    alpha, k_n = column([c.alpha for c in cfgs]), column([c.kappa / c.n for c in cfgs])
    i, minus_i = _scalars(complex, 1j, -1j)
    # scratch: the phase sum, two complex rows for each exponent and its
    # exponential, and a real row for alpha -/+ theta, then k/N times the
    # coupling when nu is added to it
    size = shape[:1] + (cfgs[0].n,)
    s, z, w, r = (np.empty(shape, complex), np.empty(size, complex),
                  np.empty(size, complex), np.empty(size))
    part = z.imag if sine else z.real
    scaled = None if nu is None else r
    multiply, subtract, add, exp = np.multiply, np.subtract, np.add, np.exp
    add_reduce = np.add.reduce

    def rhs(theta):
        add_reduce(exp(multiply(i, theta, z), w), -1, None, s, keepdims=stacked)
        if sine:
            multiply(i, subtract(alpha, theta, r), z)
        else:
            multiply(minus_i, add(alpha, theta, r), z)
        multiply(exp(z, w), s, z)
        dtheta = multiply(k_n, part, scaled)
        return dtheta if nu is None else nu + dtheta
    return rhs


def _bind_sphere(cfgs: list[SphereConfig], stacked: bool):
    """The kernel of one configuration on its (N, d+1) rows, its constants
    0-d and its products ``np.dot``, or with ``stacked`` of a batch of one
    Omega form on their (B, N, d+1) stack, each member's V, kappa and Omega
    stacked and each product a stacked ``np.matmul``, which rounds like
    ``np.dot``.  A term is dropped only where every member drops it."""
    stack = lambda arrays: np.stack(arrays) if stacked else arrays[0]
    v = None if all(c.a == 1.0 and not c.w.any() for c in cfgs) else stack(
        [c.v for c in cfgs])
    n, = _scalars(float, cfgs[0].n)
    shape = (len(cfgs), 1, 1) if stacked else ()
    kappa = np.array([c.kappa for c in cfgs], dtype=float).reshape(shape)
    size = shape[:1] + cfgs[0].x.shape
    gain = None if (kappa == 1.0).all() else kappa
    product = np.matmul if stacked else np.dot
    multiply, divide, subtract = np.multiply, np.divide, np.subtract
    accumulate, axis = np.add.accumulate, int(stacked)
    drive = None
    if not cfgs[0].shared_omega:
        omega, d = stack([c.omega for c in cfgs]), np.empty(size)
        spec = "bnij,bnj->bni" if stacked else "nij,nj->ni"

        def drive(x):
            return np.einsum(spec, omega, x, out=d)
    elif any(c.omega.any() for c in cfgs):
        omega_t, d = stack([c.omega.T for c in cfgs]), np.empty(size)

        def drive(x):
            return product(x, omega_t, d)
    # scratch: the running sums of the rows, whose last row is the sum of
    # all (the sequential sum np.add.reduce makes down the rows, without its
    # inner-loop call per row), the centroid, V times it, <x_i, V x_c> and
    # the coupling; a call's last operation allocates the tangent it
    # returns.  Stacked, the centroid enters the products as a (B, d+1, 1)
    # column and <x_i, V x_c> leaves them as a (B, N, 1) one
    running, xc, dx = np.empty(size), np.empty(shape[:1] + size[-1:]), np.empty(size)
    total = running[:, -1] if stacked else running[-1]
    if stacked:
        c, p = xc[..., None], np.empty(size[:-1] + (1,))
    else:
        c, p = xc, np.empty(size[:-1])
    vxc = c if v is None else np.empty(c.shape)
    column, row = (p, vxc.swapaxes(1, 2)) if stacked else (p[:, None], vxc)
    coupled = None if gain is None and drive is None else dx
    scaled = None if drive is None else dx

    def rhs(x):
        # sum_k V x_k = N * V x_c, so the coupling costs one small matvec
        accumulate(x, axis, None, running)
        divide(total, n, xc)
        if v is not None:
            product(v, c, vxc)
        product(x, vxc, p)
        out = subtract(row, multiply(column, x, dx), coupled)
        out = out if gain is None else multiply(gain, out, scaled)
        return out if drive is None else drive(x) + out
    return rhs


def batch_key(cfg: Config):
    """Configurations with equal keys share a batch kernel: one class, one
    state shape and, on the circle, one flavor, on the sphere one Omega form
    (shared or per particle).  None for a configuration without one: the
    matrix model integrates singly."""
    if isinstance(cfg, PhaseConfig):
        return PhaseConfig, cfg.theta.shape, cfg.flavor
    if isinstance(cfg, SphereConfig):
        return SphereConfig, cfg.x.shape, cfg.shared_omega
    return None


def make_batch_rhs(cfgs: list[Config]):
    """One rhs for configurations of one :func:`batch_key`.

    Given the (b, ...) stack of the first b >= 2 members' states it returns
    their stacked tangents, through a kernel bound once per b; given a state
    of one member's rank it is the first member's :func:`make_rhs` kernel,
    so a batch's last member steps as its single run does, a single run
    being the one-member case.
    """
    first = make_rhs(cfgs[0])
    rank = state_of(cfgs[0]).ndim
    bind = _bind_phase if isinstance(cfgs[0], PhaseConfig) else _bind_sphere
    kernels = {}

    def rhs(y):
        if y.ndim == rank:
            return first(y)
        kernel = kernels.get(len(y))
        if kernel is None:
            kernel = kernels[len(y)] = bind(cfgs[:len(y)], stacked=True)
        return kernel(y)
    return rhs


def _bind_unitary(cfg: UnitaryConfig):
    h = cfg.h
    v = None if np.array_equal(cfg.v, np.eye(cfg.d)) else cfg.v
    n, half_kappa, minus_i = _scalars(complex, cfg.n, cfg.kappa / 2.0, -1j)
    matmul, multiply, divide, subtract = np.matmul, np.multiply, np.divide, np.subtract
    # complex products round differently in place, so each writes into a
    # buffer that is none of its inputs
    size = cfg.u.shape
    drive = None
    if not cfg.shared_h:
        hu, d = np.empty(size, complex), np.empty(size, complex)

        def drive(u):
            return multiply(minus_i, matmul(h, u, hu), d)
    elif h.any():
        hu, d = np.empty(size, complex), np.empty(size, complex)

        def drive(u):
            return multiply(minus_i, np.einsum("ab,jbc->jac", h, u, out=hu), d)
    # scratch: the sum of the U_k, U_c, V U_c and its conjugate, U_j (V U_c)^*
    # and the coupling
    total, uc, star = (np.empty(size[1:], complex) for _ in range(3))
    vuc = uc if v is None else np.empty_like(uc)
    star_t, left, du = star.T, np.empty(size, complex), np.empty(size, complex)
    scaled = None if drive is None else left

    def rhs(u):
        # dU_j = -i H_j U_j + (kappa/2N) sum_k (V U_k - U_j (V U_k)^* U_j)
        # with sum_k V U_k = N * V U_c.
        divide(np.add.reduce(u, 0, None, total), n, uc)
        if v is not None:
            np.dot(v, uc, vuc)
        np.conjugate(vuc, star)
        subtract(vuc, matmul(matmul(u, star_t, left), u, du), du)
        out = multiply(half_kappa, du, scaled)
        return out if drive is None else drive(u) + out
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
