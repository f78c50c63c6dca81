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
    "default_spec",
    "parameter_table",
    "generate",
    "gen_oscillator",
    "gen_nbody",
    "integrate_oscillator",
    "nbody_initial_state",
    "simulate_nbody",
]


_NBODY_SHARED = {"dt": 0.005, "horizon": 2.0, "softening_fraction": 0.05, "g_const": 1.0}

# Each benchmark's default grid and LF/HF settings. A spec fills every
# setting it is not given from here.
_DEFAULTS = {
    "oscillator": (
        (("omega", 1.0, 5.0, 6), ("gamma", 0.05, 0.5, 19)),
        {"dt": 0.05, "horizon": 10.0},
        {"dt": 0.001, "horizon": 10.0, "trajectory_points": 200},
    ),
    "nbody": (
        (("m_total", 50.0, 500.0, 6), ("rotation", 0.0, 0.9, 6)),
        {"bodies": 8, **_NBODY_SHARED},
        {"bodies": 64, **_NBODY_SHARED},
    ),
}


@dataclass(frozen=True)
class BenchmarkSpec:
    """Grid and fidelity settings for one benchmark.

    ``grid`` lists (name, lo, hi, count) axes; samples enumerate the grid
    with the first axis slowest. Settings dictionaries hold the fidelity
    knobs (time steps, body counts, horizons); a setting left out takes
    the benchmark's default.
    """

    name: str
    grid: tuple[tuple[str, float, float, int], ...]
    lf_settings: dict = field(default_factory=dict)
    hf_settings: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.name not in _DEFAULTS:
            raise ValueError(f"unknown benchmark {self.name!r}")
        # generation reads the axes by position, as its default grid orders them
        default_grid, lf_defaults, hf_defaults = _DEFAULTS[self.name]
        if len(self.grid) != len(default_grid):
            raise ValueError(f"{self.name} grid needs {len(default_grid)} axes, got {len(self.grid)}")
        # floats, bools and strings are refused, not truncated
        counts = [(f"axis {n} count", c) for n, _, _, c in self.grid]
        for what, value in [("seed", self.seed), *counts]:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{what} must be an integer, got {value!r}")
        grid = tuple((str(n), float(lo), float(hi), int(c)) for n, lo, hi, c in self.grid)
        for name, lo, hi, count in grid:
            if count < 1:
                raise ValueError(f"axis {name} needs at least one point")
            if count > 1 and not lo < hi:
                raise ValueError(f"axis {name} needs lo < hi, got ({lo}, {hi})")
        # the oscillator's first axis is omega; the amplitude divides by it
        if self.name == "oscillator" and not grid[0][1] > 0.0:
            name, lo = grid[0][:2]
            raise ValueError(f"axis {name} needs lo > 0 (the first oscillator axis is omega), got {lo}")
        lf = {**lf_defaults, **self.lf_settings}
        hf = {**hf_defaults, **self.hf_settings}
        for fidelity, settings in (("lf", lf), ("hf", hf)):
            for key in ("dt", "horizon"):
                if not float(settings[key]) > 0.0:
                    raise ValueError(f"{fidelity} {key} must be positive, got {settings[key]}")
            if float(settings["dt"]) > float(settings["horizon"]):
                raise ValueError(f"{fidelity} dt must not exceed its horizon, got {settings}")
            if self.name == "nbody" and not settings["bodies"] >= 2:
                raise ValueError(f"{fidelity} bodies must be at least 2, got {settings['bodies']}")
        # the trajectory stride, HF steps // points, must be at least one step
        steps = int(round(float(hf["horizon"]) / float(hf["dt"])))
        if self.name == "oscillator" and not 1 <= hf["trajectory_points"] <= steps:
            raise ValueError(f"hf trajectory_points must lie in [1, {steps}], got {hf['trajectory_points']}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "lf_settings", lf)
        object.__setattr__(self, "hf_settings", hf)

    @property
    def n_samples(self) -> int:
        out = 1
        for _, _, _, count in self.grid:
            out *= count
        return out


def default_spec(name: str, seed: int = 0) -> BenchmarkSpec:
    grid = _DEFAULTS[name][0] if name in _DEFAULTS else ()  # an unknown name fails in the spec
    return BenchmarkSpec(name=name, grid=grid, seed=seed)


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
    steps = int(round(horizon / dt))
    [(xs, vs)] = _integrate_blocks(
        np.array([omega], dtype=float), np.array([gamma], dtype=float), dt, steps, method, steps
    )
    return dt * np.arange(steps + 1), xs[:, 0], vs[:, 0]


# Rows of states integrated between reads: memory is O(_BLOCK * n_samples)
# whatever the step count.
_BLOCK = 256


def _integrate_blocks(omega, gamma, dt, steps, method, block=_BLOCK):
    """Yield (x, v) blocks shaped (rows + 1, n_samples), vectorized over samples.

    Row 0 of a block is the last state of the one before (the initial
    state (1, 0) in the first); rows 1.. are the next steps. x and v are
    views of reused buffers, valid until the next block is asked for.
    """
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown integrator {method!r}")
    rows = min(block, steps)
    xs = np.empty((rows + 1, omega.size))
    vs = np.empty((rows + 1, omega.size))
    xs[0] = 1.0
    vs[0] = 0.0
    neg_w2 = -(omega**2)
    half = 0.5 * dt

    def accel(x, v):
        return neg_w2 * x - gamma * v

    def euler(k):
        a = accel(xs[k], vs[k])
        xs[k + 1] = xs[k] + dt * vs[k]
        vs[k + 1] = vs[k] + dt * a

    def rk4(k):
        # the velocity argument of each later stage equals that stage's
        # x-slope, so it is reused rather than formed again
        x0, v0 = xs[k], vs[k]
        k1v = accel(x0, v0)
        k2x = v0 + half * k1v
        k2v = accel(x0 + half * v0, k2x)
        k3x = v0 + half * k2v
        k3v = accel(x0 + half * k2x, k3x)
        k4x = v0 + dt * k3v
        k4v = accel(x0 + dt * k3x, k4x)
        xs[k + 1] = x0 + dt * (v0 + 2 * k2x + 2 * k3x + k4x) / 6.0
        vs[k + 1] = v0 + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0

    step = euler if method == "euler" else rk4
    done = 0
    while True:
        count = min(rows, steps - done)
        for k in range(count):
            step(k)
        yield xs[: count + 1], vs[: count + 1]
        done += count
        if done == steps:
            return
        xs[0] = xs[count]
        vs[0] = vs[count]


def _oscillator_qois(omega, gamma, dt, steps, method, points=0):
    """Sampled x rows, time-averaged energy and final amplitude per sample.

    Integrates in blocks and keeps rows ``stride * (1..points)`` of x,
    ``stride = steps // points``, so memory is O((_BLOCK + points) * N).
    Forward Euler trajectories must stay finite.
    """
    energy = np.empty((min(_BLOCK, steps) + 1, omega.size))
    scratch = np.empty_like(energy)
    samples = np.empty((points, omega.size))
    stride = steps // max(points, 1)  # the LF run keeps no rows
    w2 = omega**2
    total = None
    finite = True
    done = 0
    for x, v in _integrate_blocks(omega, gamma, dt, steps, method):
        if method == "euler":
            finite = finite and bool(np.all(np.isfinite(x)) and np.all(np.isfinite(v)))
        if not finite:
            continue  # integrate on: the error names samples by their final x
        count = len(x) - 1
        first = done // stride + 1
        last = min((done + count) // stride, points)
        if first <= last:
            samples[first - 1 : last] = x[first * stride - done : last * stride - done + 1 : stride]
        # 0.5 * (v**2 + w2 * x**2); row 0 then carries the sum so far, and
        # sum(axis=0) adds rows in order, as a mean over the whole
        # trajectory does (one sample sums pairwise, but normalizes to 1)
        e, t = energy[: count + 1], scratch[: count + 1]
        np.square(v, out=e)
        np.square(x, out=t)
        np.multiply(w2, t, out=t)
        np.add(e, t, out=e)
        np.multiply(0.5, e, out=e)
        if total is not None:
            e[0] = total
        total = e.sum(axis=0)
        done += count
    if not finite:
        bad = np.nonzero(~np.isfinite(x[-1]))[0]
        raise ArithmeticError(f"low-fidelity integration unstable for samples {bad.tolist()}")
    amplitude = np.sqrt(x[-1] ** 2 + (v[-1] / omega) ** 2)
    return samples, total / (steps + 1), amplitude


def gen_oscillator(spec: BenchmarkSpec) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    """Low fidelity: Euler, two scalar QoIs. High fidelity: RK4 trajectory."""
    if spec.name != "oscillator":
        raise ValueError("spec is not an oscillator spec")
    params = parameter_table(spec)
    omega, gamma = params[:, 0], params[:, 1]

    lf_dt = float(spec.lf_settings["dt"])
    lf_steps = int(round(float(spec.lf_settings["horizon"]) / lf_dt))
    _, lf_energy, lf_amp = _oscillator_qois(omega, gamma, lf_dt, lf_steps, "euler")
    lf_raw = SnapshotEnsemble(
        outputs=np.vstack([lf_energy, lf_amp]),
        params=params,
        per_sample_cost=np.full(params.shape[0], float(lf_steps)),
        labels=("energy", "amplitude"),
    )
    lf = normalize_ensemble(lf_raw, [[0], [1]])

    hf_dt = float(spec.hf_settings["dt"])
    hf_steps = int(round(float(spec.hf_settings["horizon"]) / hf_dt))
    traj_points = int(spec.hf_settings["trajectory_points"])
    sample_rows, hf_energy, hf_amp = _oscillator_qois(
        omega, gamma, hf_dt, hf_steps, "rk4", traj_points
    )
    hf_raw = SnapshotEnsemble(
        outputs=np.vstack([sample_rows, hf_energy, hf_amp]),
        params=params,
        per_sample_cost=np.full(params.shape[0], float(hf_steps)),
        labels=("trajectory",) * traj_points + ("energy", "amplitude"),
    )
    hf = normalize_ensemble(hf_raw, [list(range(traj_points)), [traj_points], [traj_points + 1]])
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
    """Softened gravitational acceleration of every body, shaped like pos.

    Coordinate-major: d[k][j, i] = pos[i, k] - pos[j, k], and every sum
    runs over the outer axis j, adding bodies in order. A sum along the
    contiguous axis would be pairwise, and round differently.
    """
    d = [pos[:, k][None, :] - pos[:, k][:, None] for k in range(3)]
    inv3 = (d[0] ** 2 + d[1] ** 2 + d[2] ** 2 + eps**2) ** (-1.5)
    np.fill_diagonal(inv3, 0.0)
    acc = np.empty_like(pos)
    for k in range(3):
        acc[:, k] = ((masses[:, None] * d[k]) * inv3).sum(axis=0)
    return -g_const * acc


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
    bodies = int(settings["bodies"])
    dt = float(settings["dt"])
    horizon = float(settings["horizon"])
    soft_frac = float(settings["softening_fraction"])
    g_const = float(settings["g_const"])
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
    return normalize_ensemble(lf_raw, groups), normalize_ensemble(hf_raw, groups)
