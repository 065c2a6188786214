"""Configuration types for the three oscillator models.

A configuration bundles the dynamical state (angles, unit vectors, or unitary
matrices) with the constant parameters of its flow (frequencies, coupling
strength, frustration).  The dataclasses store exactly what they are given;
the ``make_*`` factories additionally normalize sphere points, skew-symmetrize
``Omega``/``W`` and Hermitize ``H``, so that configurations produced through
them always pass :func:`validate`.

Angles are kept unwrapped in R.  The conserved functional of the frustrated
circle flow depends on the raw total phase, so wrapping would destroy it;
observables that need mod-2pi values wrap on read.

All configuration types are immutable after construction (frozen dataclasses
over read-only arrays) and safe to share between threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace

import numpy as np

# Tolerances used by validate(); these match the guarantees given by the
# factories and by the projected integrators.
UNIT_NORM_TOL = 1e-12
UNITARY_TOL = 1e-10


class Flavor(enum.Enum):
    """Coupling flavor of the circle model.

    SINE is the Kuramoto-Sakaguchi coupling sin(theta_k - theta_j + alpha).
    COSINE is the frustrated cosine flow cos(theta_j - theta_k + alpha),
    related to the sine flavor by alpha_sine = pi/2 - alpha.
    """

    SINE = "sine"
    COSINE = "cosine"


def alpha_in(cfg: "PhaseConfig", flavor: Flavor) -> float:
    """Frustration of the flow equivalent to ``cfg`` in ``flavor``."""
    return cfg.alpha if cfg.flavor is flavor else np.pi / 2.0 - cfg.alpha


def _frozen(a, dtype) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``."""
    a = np.array(a, dtype=dtype, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PhaseConfig:
    """N phase oscillators on the circle with uniform frustration."""

    theta: np.ndarray
    nu: np.ndarray
    kappa: float
    alpha: float
    flavor: Flavor = Flavor.SINE

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta, float))
        object.__setattr__(self, "nu", _frozen(self.nu, float))
        if self.theta.ndim != 1 or self.theta.size < 1:
            raise ValueError("theta must be a nonempty 1-d array")
        if self.nu.shape != self.theta.shape:
            raise ValueError("nu must have the same shape as theta")

    @property
    def n(self) -> int:
        return self.theta.size

    def with_state(self, theta: np.ndarray) -> "PhaseConfig":
        return replace(self, theta=theta)


@dataclass(frozen=True)
class SphereConfig:
    """N points on the unit sphere S^d in R^(d+1).

    The frustration matrix is stored split as V = a*I + W with W
    skew-symmetric.  ``omega`` is either one shared (d+1)x(d+1)
    skew-symmetric matrix or a stack of N of them.
    """

    x: np.ndarray
    omega: np.ndarray
    kappa: float
    a: float = 1.0
    w: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x, float))
        if self.x.ndim != 2 or self.x.shape[0] < 1 or self.x.shape[1] < 2:
            raise ValueError("x must be an (N, d+1) array with d >= 1")
        dim = self.x.shape[1]
        w = np.zeros((dim, dim)) if self.w is None else self.w
        object.__setattr__(self, "w", _frozen(w, float))
        object.__setattr__(self, "omega", _frozen(self.omega, float))
        if self.omega.shape not in ((dim, dim), (self.x.shape[0], dim, dim)):
            raise ValueError("omega must be (d+1, d+1) or (N, d+1, d+1)")
        if self.w.shape != (dim, dim):
            raise ValueError("w must be (d+1, d+1)")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.x.shape[1]

    @property
    def v(self) -> np.ndarray:
        """Full frustration matrix a*I + W."""
        return self.a * np.eye(self.ambient_dim) + self.w

    @property
    def shared_omega(self) -> bool:
        return self.omega.ndim == 2

    def with_state(self, x: np.ndarray) -> "SphereConfig":
        return replace(self, x=x)


@dataclass(frozen=True)
class UnitaryConfig:
    """N unitary d x d matrices coupled through a unitary frustration V.

    ``h`` is one shared d x d Hermitian matrix or a stack of N of them;
    the certified theorems assume a shared H, heterogeneous stacks are
    accepted for exploration runs.
    """

    u: np.ndarray
    h: np.ndarray
    kappa: float
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _frozen(self.u, complex))
        object.__setattr__(self, "h", _frozen(self.h, complex))
        object.__setattr__(self, "v", _frozen(self.v, complex))
        if self.u.ndim != 3 or self.u.shape[1] != self.u.shape[2]:
            raise ValueError("u must be an (N, d, d) array")
        d = self.u.shape[1]
        if self.h.shape not in ((d, d), (self.u.shape[0], d, d)):
            raise ValueError("h must be (d, d) or (N, d, d)")
        if self.v.shape != (d, d):
            raise ValueError("v must be (d, d)")

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[1]

    @property
    def shared_h(self) -> bool:
        return self.h.ndim == 2

    def with_state(self, u: np.ndarray) -> "UnitaryConfig":
        return replace(self, u=u)


Config = PhaseConfig | SphereConfig | UnitaryConfig


# ---------------------------------------------------------------------------
# factories


def skew_part(a: np.ndarray) -> np.ndarray:
    """Skew-symmetric part (A - A^T)/2, applied along the last two axes."""
    return (a - np.swapaxes(a, -1, -2)) / 2.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2.0


def make_phase_config(theta, nu=0.0, kappa=1.0, alpha=0.0,
                      flavor: Flavor = Flavor.SINE) -> PhaseConfig:
    theta = np.asarray(theta, dtype=float)
    nu = np.broadcast_to(np.asarray(nu, dtype=float), theta.shape)
    return PhaseConfig(theta=theta, nu=nu, kappa=float(kappa),
                       alpha=float(alpha), flavor=flavor)


def make_sphere_config(x, omega=None, kappa=1.0, a=1.0, w=None) -> SphereConfig:
    """Build a sphere configuration, normalizing rows of x and
    skew-symmetrizing omega and w (user matrices carry rounding noise)."""
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms < 1e-300):
        raise ValueError("cannot normalize a zero vector onto the sphere")
    x = x / norms
    dim = x.shape[1]
    if omega is None:
        omega = np.zeros((dim, dim))
    omega = skew_part(np.asarray(omega, dtype=float))
    if w is None:
        w = np.zeros((dim, dim))
    w = skew_part(np.asarray(w, dtype=float))
    return SphereConfig(x=x, omega=omega, kappa=float(kappa), a=float(a), w=w)


def make_unitary_config(u, h=None, kappa=1.0, v=None) -> UnitaryConfig:
    """Build a unitary configuration, Hermitizing h.  ``u`` and ``v`` are
    stored as given; validate() reports any unitarity violation."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[-1]
    if h is None:
        h = np.zeros((d, d), dtype=complex)
    h = hermitian_part(np.asarray(h, dtype=complex))
    if v is None:
        v = np.eye(d, dtype=complex)
    return UnitaryConfig(u=u, h=h, kappa=float(kappa), v=np.asarray(v, dtype=complex))


def random_phase_config(rng: np.random.Generator, n: int, kappa=1.0, alpha=0.0,
                        flavor: Flavor = Flavor.SINE, nu_scale=0.0) -> PhaseConfig:
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    nu = nu_scale * rng.standard_normal(n) if nu_scale else np.zeros(n)
    return make_phase_config(theta, nu, kappa, alpha, flavor)


def random_sphere_config(rng: np.random.Generator, n: int, d: int, kappa=1.0,
                         a=1.0, w_scale=0.0, omega_scale=0.0,
                         shared_omega=True) -> SphereConfig:
    x = rng.standard_normal((n, d + 1))
    w = w_scale * rng.standard_normal((d + 1, d + 1)) if w_scale else None
    if omega_scale:
        shape = (d + 1, d + 1) if shared_omega else (n, d + 1, d + 1)
        omega = omega_scale * rng.standard_normal(shape)
    else:
        omega = None
    return make_sphere_config(x, omega, kappa, a, w)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-like unitary via QR of a complex Gaussian matrix, with the
    phase convention that makes the factorization unique."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def random_unitary_config(rng: np.random.Generator, n: int, d: int, kappa=1.0,
                          h_scale=0.0) -> UnitaryConfig:
    u = np.array([random_unitary(rng, d) for _ in range(n)])
    h = None
    if h_scale:
        h = h_scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return make_unitary_config(u, h, kappa)


# ---------------------------------------------------------------------------
# validation


def validate(cfg: Config) -> list[str]:
    """Diagnostic invariant check.

    Returns an empty list iff every type invariant holds at its stated
    tolerance; otherwise one message per violation, naming the invariant
    and the offending index or magnitude.  Every numeric field, state and
    parameters alike, must be finite.
    """
    if not isinstance(cfg, Config):
        raise TypeError(f"not a model configuration: {type(cfg)!r}")
    non_finite = [f.name for f in fields(cfg)
                  if f.name != "flavor" and not np.all(np.isfinite(getattr(cfg, f.name)))]
    violations = [f"{name}: non-finite entries present" for name in non_finite]
    # a non-finite field skips its structural check: inf - inf would warn
    if isinstance(cfg, SphereConfig):
        norms = np.linalg.norm(cfg.x, axis=1)
        for i in np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            violations.append(
                f"x: non-unit vector at index {i} (|norm - 1| = {abs(norms[i]-1.0):.3e})")
        for name, m in [("omega", cfg.omega), ("w", cfg.w)]:
            dev = 0.0 if name in non_finite else np.max(np.abs(m + np.swapaxes(m, -1, -2)))
            if dev > 0.0:
                violations.append(
                    f"{name}: skew-symmetry violation (max |A + A^T| = {dev:.3e})")
    elif isinstance(cfg, UnitaryConfig):
        eye = np.eye(cfg.d)
        if "u" not in non_finite:
            gram = cfg.u @ np.conj(np.swapaxes(cfg.u, 1, 2))
            devs = np.linalg.norm(gram - eye, axis=(1, 2))
            for i in np.flatnonzero(devs > UNITARY_TOL):
                violations.append(
                    f"u: non-unitary at index {i} (||U U* - I||_F = {devs[i]:.3e})")
        hdev = 0.0 if "h" in non_finite else np.max(
            np.abs(cfg.h - np.conj(np.swapaxes(cfg.h, -1, -2))))
        if hdev > UNITARY_TOL:
            violations.append(f"h: not Hermitian (max |H - H*| = {hdev:.3e})")
        vdev = 0.0 if "v" in non_finite else np.linalg.norm(cfg.v @ cfg.v.conj().T - eye)
        if vdev > UNITARY_TOL:
            violations.append(f"v: not unitary (||V V* - I||_F = {vdev:.3e})")
    return violations


# ---------------------------------------------------------------------------
# the U(2) <-> (angle, S^3) parametrization
#
# A 2x2 unitary factors as U = e^{-i theta} A(x) where A(x) is the real
# quaternion matrix
#
#     A(x) = [[x4 + i x1,  x2 + i x3],
#             [-x2 + i x3, x4 - i x1]],      ||x|| = 1.
#
# M_2(C) splits (over R) as {A(p)} + i {A(q)}; the split is the workhorse
# for both the embedding and the pushforward consistency check in dynamics.


def quat_to_matrix(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = x
    return np.array([[x4 + 1j * x1, x2 + 1j * x3],
                     [-x2 + 1j * x3, x4 - 1j * x1]])


def split_quaternion(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split 2x2 complex matrices as A(p) + i A(q) over any leading axes;
    returns (p, q), each with a trailing axis of 4."""
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    p = np.stack([(b00.imag - b11.imag) / 2,
                  (b01.real - b10.real) / 2,
                  (b01.imag + b10.imag) / 2,
                  (b00.real + b11.real) / 2], axis=-1)
    q = np.stack([(b11.real - b00.real) / 2,
                  (b01.imag - b10.imag) / 2,
                  -(b01.real + b10.real) / 2,
                  (b00.imag + b11.imag) / 2], axis=-1)
    return p, q


def left_mul_matrix(v: np.ndarray) -> np.ndarray:
    """4x4 matrix of left quaternion multiplication: A(v) A(y) = A(L_v y).

    For a unit v this is v4*I plus a skew-symmetric part, i.e. exactly the
    frustration matrix of the induced sphere flow.
    """
    v1, v2, v3, v4 = v
    return np.array([[v4, -v3, v2, v1],
                     [v3, v4, -v1, v2],
                     [-v2, v1, v4, v3],
                     [-v1, -v2, -v3, v4]])


def embed_unitary2_to_sphere(u: np.ndarray) -> tuple[float, np.ndarray]:
    """Decompose a 2x2 unitary as U = e^{-i theta} A(x) with ||x|| = 1.

    theta is taken in (-pi/2, pi/2] (the decomposition is unique only up to
    (theta, x) -> (theta + pi, -x)).  Rejects non-unitary input.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.linalg.norm(u @ u.conj().T - np.eye(2)) > UNITARY_TOL:
        raise ValueError("matrix is not unitary within tolerance")
    theta = -0.5 * np.angle(np.linalg.det(u))
    p, q = split_quaternion(np.exp(1j * theta) * u)
    # for exactly unitary input the i-quaternion part vanishes identically
    if np.max(np.abs(q)) > 1e-8:
        raise ValueError("matrix is not in U(2) within tolerance")
    return theta, p / np.linalg.norm(p)


def assemble_unitary2(theta: float, x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed_unitary2_to_sphere`."""
    return np.exp(-1j * theta) * quat_to_matrix(np.asarray(x, dtype=float))
