"""Layer micro-cases, each timed through a public entry point of synclab.

Each case is repeated in batches of about ``BATCH_S`` seconds; the reported
figure is the median over ``BATCHES`` batches of the time per call.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

BATCH_S = 0.03
BATCHES = 5


def _per_call(fn) -> float:
    """Median seconds per call of ``fn()``."""
    fn()
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(BATCH_S / max(time.perf_counter() - t0, 1e-7)))
    per_call = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps)
    return statistics.median(per_call)


def run(seed: int) -> dict:
    state = importlib.import_module("synclab.state")
    dynamics = importlib.import_module("synclab.dynamics")
    integrate = importlib.import_module("synclab.integrate")
    scenario = importlib.import_module("synclab.scenario")
    rng = np.random.default_rng(seed)
    out = {}

    for n in (8, 100, 1000):
        cases = {
            "phase": state.random_phase_config(rng, n, kappa=1.0, alpha=0.3),
            "sphere": state.random_sphere_config(rng, n, 2, kappa=1.0),
            "unitary": state.random_unitary_config(rng, n, 2, kappa=1.0),
        }
        for model, cfg in cases.items():
            rhs = dynamics.make_rhs(cfg)
            y = dynamics.state_of(cfg)
            out[f"dynamics.{model}_rhs_us.n{n}"] = 1e6 * _per_call(lambda: rhs(y))

    # one step of each scheme on the N=8 sphere, through integrate()
    cfg = state.random_sphere_config(rng, 8, 2, kappa=1.0)
    steps = 200
    for scheme in (integrate.Scheme.RK4, integrate.Scheme.DOPRI5):
        settings = integrate.default_settings(cfg, scheme=scheme, dt=1e-3, rtol=1e-6,
                                              atol=1e-8)
        traj = integrate.integrate(cfg, settings, steps * 1e-3)
        taken = len(traj) - 1
        out[f"integrate.{scheme.value}_step_us.sphere_n8"] = 1e6 * _per_call(
            lambda: integrate.integrate(cfg, settings, steps * 1e-3)) / taken

    # polar factor of a stack of 2x2 unitaries after one unprojected RK4 step
    for n in (5, 100, 1000):
        cfg = state.random_unitary_config(rng, n, 2, kappa=1.0)
        settings = integrate.IntegratorSettings(dt=1e-2)
        stepped = integrate.integrate(cfg, settings, 1e-2).final_state
        out[f"integrate.polar_factor_us.n{n}"] = 1e6 * _per_call(
            lambda: integrate.polar_factor(stepped))

    cfg = state.random_sphere_config(rng, 20, 2, kappa=1.0)
    traj = integrate.integrate(cfg, integrate.default_settings(cfg, record_every=10), 1.0)
    values = traj.states.size + len(traj)
    out["scenario.trajectory_csv_ns_per_value"] = 1e9 * _per_call(
        lambda: scenario.trajectory_csv(traj)) / values
    return out
