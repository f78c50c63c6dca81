"""Synthetic two-fidelity benchmark generators.

Both generators are pure functions of their spec (the seed lives inside
the spec), produce a full parameter grid, and return a matched pair of
low- and high-fidelity snapshot ensembles with per-sample cost columns
proportional to the work each fidelity performs.

* oscillator: a damped linear oscillator. The low-fidelity model is a
  coarse forward-Euler run reduced to two scalar quantities of interest,
  so its output space is deliberately low dimensional; the high-fidelity
  model is a fine RK4 run that keeps the sampled trajectory.
* nbody: a softened-gravity cluster with a rotation parameter. Both
  fidelities report the same three scalar quantities and differ only in
  body count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import SnapshotEnsemble, normalize_ensemble

__all__ = [
    "BenchmarkSpec",
    "oscillator_default_spec",
    "nbody_default_spec",
    "default_spec",
    "parameter_table",
    "generate",
    "gen_oscillator",
    "gen_nbody",
    "integrate_oscillator",
    "nbody_initial_state",
    "simulate_nbody",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Grid and fidelity settings for one benchmark.

    ``grid`` lists (name, lo, hi, count) axes; samples enumerate the grid
    with the first axis slowest. Settings dictionaries hold the fidelity
    knobs (time steps, body counts, horizons).
    """

    name: str
    grid: tuple[tuple[str, float, float, int], ...]
    lf_settings: dict = field(default_factory=dict)
    hf_settings: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.name not in ("oscillator", "nbody"):
            raise ValueError(f"unknown benchmark {self.name!r}")
        grid = tuple((str(n), float(lo), float(hi), int(c)) for n, lo, hi, c in self.grid)
        for name, lo, hi, count in grid:
            if count < 1:
                raise ValueError(f"axis {name} needs at least one point")
            if count > 1 and not lo < hi:
                raise ValueError(f"axis {name} needs lo < hi, got ({lo}, {hi})")
        for fidelity, settings in (("lf", self.lf_settings), ("hf", self.hf_settings)):
            for key in ("dt", "horizon"):
                if key in settings and not float(settings[key]) > 0.0:
                    raise ValueError(f"{fidelity} {key} must be positive, got {settings[key]}")
        object.__setattr__(self, "grid", grid)

    @property
    def n_samples(self) -> int:
        out = 1
        for _, _, _, count in self.grid:
            out *= count
        return out


def oscillator_default_spec(seed: int = 0) -> BenchmarkSpec:
    return BenchmarkSpec(
        name="oscillator",
        grid=(("omega", 1.0, 5.0, 6), ("gamma", 0.05, 0.5, 19)),
        lf_settings={"dt": 0.05, "horizon": 10.0},
        hf_settings={"dt": 0.001, "horizon": 10.0, "trajectory_points": 200},
        seed=seed,
    )


def nbody_default_spec(seed: int = 0) -> BenchmarkSpec:
    shared = {
        "dt": 0.005,
        "horizon": 2.0,
        "softening_fraction": 0.05,
        "g_const": 1.0,
    }
    return BenchmarkSpec(
        name="nbody",
        grid=(("m_total", 50.0, 500.0, 6), ("rotation", 0.0, 0.9, 6)),
        lf_settings={"bodies": 8, **shared},
        hf_settings={"bodies": 64, **shared},
        seed=seed,
    )


def default_spec(name: str, seed: int = 0) -> BenchmarkSpec:
    if name == "oscillator":
        return oscillator_default_spec(seed)
    if name == "nbody":
        return nbody_default_spec(seed)
    raise ValueError(f"unknown benchmark {name!r}")


def parameter_table(spec: BenchmarkSpec) -> np.ndarray:
    """All grid points as an (n_samples, n_axes) table, first axis slowest."""
    axes = [np.linspace(lo, hi, count) for _, lo, hi, count in spec.grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def generate(spec: BenchmarkSpec) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    if spec.name == "oscillator":
        return gen_oscillator(spec)
    return gen_nbody(spec)


# === damped oscillator ===


def integrate_oscillator(
    omega: float, gamma: float, dt: float, horizon: float, method: str = "rk4"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate x'' = -omega^2 x - gamma x' from (1, 0); returns (t, x, v)."""
    ts, xs, vs = _integrate_many(
        np.array([omega]), np.array([gamma]), dt, horizon, method
    )
    return ts, xs[:, 0], vs[:, 0]


def _integrate_many(omega, gamma, dt, horizon, method):
    """Vectorized over samples: states shaped (steps + 1, n_samples)."""
    omega = np.asarray(omega, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    steps = int(round(horizon / dt))
    xs = np.empty((steps + 1, omega.size))
    vs = np.empty((steps + 1, omega.size))
    xs[0] = 1.0
    vs[0] = 0.0
    w2 = omega**2

    def accel(x, v):
        return -w2 * x - gamma * v

    if method == "euler":
        for k in range(steps):
            a = accel(xs[k], vs[k])
            xs[k + 1] = xs[k] + dt * vs[k]
            vs[k + 1] = vs[k] + dt * a
    elif method == "rk4":
        for k in range(steps):
            x0, v0 = xs[k], vs[k]
            k1x, k1v = v0, accel(x0, v0)
            k2x, k2v = v0 + 0.5 * dt * k1v, accel(x0 + 0.5 * dt * k1x, v0 + 0.5 * dt * k1v)
            k3x, k3v = v0 + 0.5 * dt * k2v, accel(x0 + 0.5 * dt * k2x, v0 + 0.5 * dt * k2v)
            k4x, k4v = v0 + dt * k3v, accel(x0 + dt * k3x, v0 + dt * k3v)
            xs[k + 1] = x0 + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
            vs[k + 1] = v0 + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
    else:
        raise ValueError(f"unknown integrator {method!r}")
    ts = dt * np.arange(steps + 1)
    return ts, xs, vs


def _oscillator_qois(omega, xs, vs) -> tuple[np.ndarray, np.ndarray]:
    """Time-averaged energy and final oscillation amplitude per sample."""
    w2 = np.asarray(omega, dtype=float) ** 2
    energy = 0.5 * (vs**2 + w2 * xs**2)
    avg_energy = energy.mean(axis=0)
    amplitude = np.sqrt(xs[-1] ** 2 + (vs[-1] / np.asarray(omega)) ** 2)
    return avg_energy, amplitude


def gen_oscillator(spec: BenchmarkSpec) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    """Low fidelity: Euler, two scalar QoIs. High fidelity: RK4 trajectory."""
    if spec.name != "oscillator":
        raise ValueError("spec is not an oscillator spec")
    params = parameter_table(spec)
    omega, gamma = params[:, 0], params[:, 1]

    lf_dt = float(spec.lf_settings.get("dt", 0.05))
    lf_T = float(spec.lf_settings.get("horizon", 10.0))
    _, xs, vs = _integrate_many(omega, gamma, lf_dt, lf_T, "euler")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        bad = np.nonzero(~np.isfinite(xs[-1]))[0]
        raise ArithmeticError(
            f"low-fidelity integration unstable for samples {bad.tolist()}"
        )
    lf_energy, lf_amp = _oscillator_qois(omega, xs, vs)
    lf_steps = int(round(lf_T / lf_dt))
    lf_raw = SnapshotEnsemble(
        outputs=np.vstack([lf_energy, lf_amp]),
        params=params,
        per_sample_cost=np.full(params.shape[0], float(lf_steps)),
        labels=("energy", "amplitude"),
    )
    lf, _ = normalize_ensemble(lf_raw, [[0], [1]])

    hf_dt = float(spec.hf_settings.get("dt", 0.001))
    hf_T = float(spec.hf_settings.get("horizon", 10.0))
    traj_points = int(spec.hf_settings.get("trajectory_points", 200))
    _, xs_h, vs_h = _integrate_many(omega, gamma, hf_dt, hf_T, "rk4")
    hf_steps = int(round(hf_T / hf_dt))
    stride = hf_steps // traj_points
    sample_rows = xs_h[stride * np.arange(1, traj_points + 1)]
    hf_energy, hf_amp = _oscillator_qois(omega, xs_h, vs_h)
    hf_raw = SnapshotEnsemble(
        outputs=np.vstack([sample_rows, hf_energy, hf_amp]),
        params=params,
        per_sample_cost=np.full(params.shape[0], float(hf_steps)),
        labels=("trajectory",) * traj_points + ("energy", "amplitude"),
    )
    hf, _ = normalize_ensemble(
        hf_raw, [list(range(traj_points)), [traj_points], [traj_points + 1]]
    )
    return lf, hf


# === softened-gravity cluster ===


def nbody_initial_state(
    bodies: int, m_total: float, rotation: float, seed: int, fidelity_tag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Deterministic cluster: positions in the unit ball, solid rotation.

    Positions are centered so the total momentum of the rotation field
    vanishes. Returns positions, velocities, masses, and the softening
    length (a fraction of the initial cluster radius).
    """
    rng = np.random.default_rng([seed, fidelity_tag])
    direction = rng.normal(size=(bodies, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = rng.uniform(size=bodies) ** (1.0 / 3.0)
    pos = direction * radius[:, None]
    pos -= pos.mean(axis=0)
    axis = np.array([0.0, 0.0, 1.0])
    vel = rotation * np.cross(axis, pos)
    masses = np.full(bodies, m_total / bodies)
    cluster_radius = float(np.max(np.linalg.norm(pos, axis=1)))
    return pos, vel, masses, cluster_radius


def _nbody_accel(pos, masses, eps, g_const):
    diff = pos[:, None, :] - pos[None, :, :]
    dist2 = np.sum(diff**2, axis=2) + eps**2
    inv3 = dist2 ** (-1.5)
    np.fill_diagonal(inv3, 0.0)
    return -g_const * np.einsum("j,ijk,ij->ik", masses, diff, inv3)


def _nbody_energy(pos, vel, masses, eps, g_const):
    kinetic = 0.5 * float(np.sum(masses * np.sum(vel**2, axis=1)))
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2) + eps**2)
    iu = np.triu_indices(len(masses), k=1)
    potential = -g_const * float(np.sum(np.outer(masses, masses)[iu] / dist[iu]))
    return kinetic + potential


def simulate_nbody(pos, vel, masses, dt, horizon, eps, g_const):
    """Leapfrog (kick-drift-kick) evolution; returns final (pos, vel)."""
    pos = np.array(pos, dtype=float)
    vel = np.array(vel, dtype=float)
    steps = int(round(horizon / dt))
    acc = _nbody_accel(pos, masses, eps, g_const)
    for _ in range(steps):
        vel += 0.5 * dt * acc
        pos += dt * vel
        acc = _nbody_accel(pos, masses, eps, g_const)
        vel += 0.5 * dt * acc
    return pos, vel


def _nbody_fidelity(params, settings, seed, fidelity_tag):
    bodies = int(settings.get("bodies", 8))
    dt = float(settings.get("dt", 0.005))
    horizon = float(settings.get("horizon", 2.0))
    soft_frac = float(settings.get("softening_fraction", 0.05))
    g_const = float(settings.get("g_const", 1.0))
    steps = int(round(horizon / dt))

    pos0, vel_unit, _, cluster_radius = nbody_initial_state(
        bodies, 1.0, 1.0, seed, fidelity_tag
    )
    eps = soft_frac * cluster_radius
    qois = np.empty((3, params.shape[0]))
    for j, (m_total, rotation) in enumerate(params):
        masses = np.full(bodies, m_total / bodies)
        pos, vel = simulate_nbody(
            pos0, rotation * vel_unit, masses, dt, horizon, eps, g_const
        )
        qois[0, j] = _nbody_energy(pos, vel, masses, eps, g_const)
        qois[1, j] = float(np.mean(np.linalg.norm(pos, axis=1)))
        qois[2, j] = float(np.mean(np.linalg.norm(vel, axis=1)))
    cost = float(bodies**2 * steps)
    return SnapshotEnsemble(
        outputs=qois,
        params=params,
        per_sample_cost=np.full(params.shape[0], cost),
        labels=("energy", "mean_distance", "mean_speed"),
    )


def gen_nbody(spec: BenchmarkSpec) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    """Two cluster sizes over a (total mass, rotation) grid."""
    if spec.name != "nbody":
        raise ValueError("spec is not an nbody spec")
    params = parameter_table(spec)
    lf_raw = _nbody_fidelity(params, spec.lf_settings, spec.seed, 0)
    hf_raw = _nbody_fidelity(params, spec.hf_settings, spec.seed, 1)
    groups = [[0], [1], [2]]
    lf, _ = normalize_ensemble(lf_raw, groups)
    hf, _ = normalize_ensemble(hf_raw, groups)
    return lf, hf
