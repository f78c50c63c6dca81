"""Synthetic two-fidelity benchmark generators.

Both generators are pure functions of their spec (the seed lives inside
the spec), produce a full parameter grid, and return a matched pair of
low- and high-fidelity snapshot ensembles with per-sample cost columns
proportional to the work each fidelity performs.

* oscillator: a damped linear oscillator. The low-fidelity model is a
  coarse forward-Euler run reduced to two scalar quantities of interest,
  so its output space is deliberately low dimensional; the high-fidelity
  model is a fine RK4 run that keeps the sampled trajectory. As the ODE is
  linear, an RK4 step is one 2x2 matrix per sample, and a block of steps
  one product with a table of its powers.
* nbody: a softened-gravity cluster with a rotation parameter. Both
  fidelities report the same three scalar quantities and differ only in
  body count.

Every fidelity ends in one finish step, ``_ensemble``: a sample with a
non-finite output raises ArithmeticError naming it, and the outputs are
normalized per QoI label, frozen and handed to the ensemble uncopied.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import _BLOCK_DOUBLES, SnapshotEnsemble, normalize_in_place

__all__ = [
    "BenchmarkSpec",
    "default_spec",
    "parameter_table",
    "generate",
    "gen_oscillator",
    "gen_nbody",
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
        lf = {**lf_defaults, **self.lf_settings}
        hf = {**hf_defaults, **self.hf_settings}
        fidelities = (("lf", lf, lf_defaults), ("hf", hf, hf_defaults))
        # a misspelt setting would otherwise run silently at its default
        for fidelity, settings, defaults in fidelities:
            unknown = sorted(set(settings) - set(defaults))
            if unknown:
                raise ValueError(f"unknown {fidelity} setting(s) {unknown} for {self.name}")
        # each value takes the kind of its default and is refused, not
        # converted, as another: an integer (the seed, an axis count, an
        # integer setting) as a float, bool or string, a number (an axis
        # bound, any other setting) as a bool or string
        values = [("seed", self.seed, 0)]
        values += [(f"axis {n} {end}", v, kind) for n, *axis in self.grid
                   for end, v, kind in zip(("lo", "hi", "count"), axis, (0.0, 0.0, 0))]
        values += [(f"{fidelity} {key}", settings[key], default)
                   for fidelity, settings, defaults in fidelities for key, default in defaults.items()]
        for what, value, default in values:
            integer = isinstance(default, int)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
                raise ValueError(f"{what} must be {'an integer' if integer else 'a number'}, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
        for fidelity, settings, defaults in fidelities:
            settings.update((key, float(settings[key])) for key in defaults if isinstance(defaults[key], float))
            for key, value in settings.items():
                if not math.isfinite(value):
                    raise ValueError(f"{fidelity} {key} must be finite, got {value}")
            for key in ("dt", "horizon"):
                if not settings[key] > 0.0:
                    raise ValueError(f"{fidelity} {key} must be positive, got {settings[key]}")
            if settings["dt"] > settings["horizon"]:
                raise ValueError(f"{fidelity} dt must not exceed its horizon, got {settings}")
            if self.name == "nbody" and not settings["bodies"] >= 2:
                raise ValueError(f"{fidelity} bodies must be at least 2, got {settings['bodies']}")
        # the trajectory stride, HF steps // points, must be at least one step
        steps = int(round(hf["horizon"] / hf["dt"]))
        if self.name == "oscillator" and not 1 <= hf["trajectory_points"] <= steps:
            raise ValueError(f"hf trajectory_points must lie in [1, {steps}], got {hf['trajectory_points']}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "lf_settings", lf)
        object.__setattr__(self, "hf_settings", hf)

    @property
    def n_samples(self) -> int:
        return math.prod(count for *_, count in self.grid)


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


def _rk4_powers(omega, gamma, dt, rows):
    """R, R**2, ..., R**rows of each sample's RK4 step matrix, shaped (rows, 2, 2, N).

    For the linear x'' = -omega**2 x - gamma x', one RK4 step of y = (x, v)
    is exactly y <- R y, with R = I + hA + (hA)**2/2 + (hA)**3/6 + (hA)**4/24
    the RK4 stability polynomial at A = [[0, 1], [-omega**2, -gamma]]. R is
    formed in Horner form, I + hA (I + hA/2 (I + hA/3 (I + hA/4))), and
    each power from the one before: R**(k + 1) = R**k R.
    """
    n = omega.size
    hA = np.zeros((2, 2, n))
    hA[0, 1] = dt
    hA[1, 0] = -dt * omega**2
    hA[1, 1] = -dt * gamma
    eye = np.eye(2)[:, :, None]
    R = eye + hA / 4
    for c in (3, 2, 1):
        R = eye + np.einsum("ijn,jkn->ikn", hA / c, R)
    powers = np.empty((rows, 2, 2, n))
    powers[0] = R
    for k in range(1, rows):
        np.einsum("ijn,jkn->ikn", powers[k - 1], R, out=powers[k])
    return powers


def _integrate_blocks(omega, gamma, dt, steps, method, rows):
    """Yield state blocks shaped (rows + 1, 2, n_samples), vectorized over samples.

    ``y[:, 0]`` and ``y[:, 1]`` of a block are x and v. Row 0 is the last
    state of the block before ((1, 0) in the first); rows 1.. are the next
    ``1 <= rows <= steps`` steps (fewer in the last), in a reused buffer
    valid until the next block is asked for. An unstable step overflows
    without a numpy warning: the callers check the states they keep.

    RK4 multiplies row 0 by a table of the step matrix's powers
    (``_rk4_powers``, 4 doubles per sample and row), one einsum a block;
    its states differ from the stage-by-stage oracle's in the last digits.
    Forward Euler is straight-line ufunc calls on views bound once, then a
    slice copy into the block: the byte-identical form of the
    stage-by-stage integrator. At small N a call costs its dispatch, so
    its scalar is a 0-d float64 array: a Python float is converted per call.
    """
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown integrator {method!r}")
    ys = np.empty((rows + 1, 2, omega.size))
    ys[0, 0], ys[0, 1] = 1.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # not held across a yield
        if method == "rk4":
            powers = _rk4_powers(omega, gamma, dt, min(rows, steps))
        else:
            # z = (x, v, a): as x' = v, the state y0 = (x, v) and slope K0 = (v, a)
            # are the overlapping views z[0:2] and z[1:3]
            z = np.empty((3, omega.size))
            y0, K0, a0 = z[0:2], z[1:3], z[2]
            y0[...] = ys[0]
            coef = np.stack([-(omega**2), gamma])  # a = -w2 * x - gamma * v is P0 - P1, P = coef * y0
            P, S = np.empty((2, 2, omega.size))
            P0, P1 = P
            dt = np.array(dt)
            mul, add, sub = np.multiply, np.add, np.subtract
            after = list(ys[1:])
    # Each Euler call performs one operation of tests/oracles.integrate_oscillator_dense,
    # on the same operands in the same order, so every state rounds as there, bit for bit.
    for done in range(0, steps, rows):
        count = min(rows, steps - done)
        if done:
            ys[0] = ys[rows]  # the last state of the block before, which was full
        with np.errstate(over="ignore", invalid="ignore"):
            if method == "rk4":
                np.einsum("kijn,jn->kin", powers[:count], ys[0], out=ys[1 : count + 1])
            else:
                for row in after[:count]:
                    mul(coef, y0, P)
                    sub(P0, P1, a0)
                    add(y0, mul(dt, K0, S), y0)  # y0 + dt * K0
                    row[...] = y0
        yield ys[: count + 1]


@np.errstate(over="ignore", invalid="ignore")
def _oscillator_qois(omega, gamma, dt, steps, method, points=0):
    """One (points + 2, n_samples) array: rows ``stride * (1..points)`` of
    x, ``stride = steps // points``, then the time-averaged energy and the
    final amplitude of each sample.

    Integrates in blocks of at most _BLOCK_DOUBLES doubles (twice that for
    RK4, with its table), so memory is O(_BLOCK_DOUBLES + points * N)
    whatever the step count. An unstable sample overflows to a non-finite
    output without a numpy warning; the caller's output check names it.
    """
    n = omega.size
    # 4 doubles per sample and step: x and v, and two energy rows (RK4's
    # table of step-matrix powers takes 4 more)
    rows = min(steps, max(1, _BLOCK_DOUBLES // (4 * n)))
    out = np.empty((points + 2, n))
    samples = out[:points]
    energy = np.empty((rows + 1, n))
    scratch = np.empty_like(energy)
    stride = steps // max(points, 1)  # the LF run keeps no rows
    w2 = omega**2
    total = None
    done = 0
    for y in _integrate_blocks(omega, gamma, dt, steps, method, rows):
        x, v = y[:, 0], y[:, 1]
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
    np.divide(total, steps + 1, out=out[points])
    out[points + 1] = np.sqrt(x[-1] ** 2 + (v[-1] / omega) ** 2)
    return out


def _ensemble(outputs, params, cost, labels, what) -> SnapshotEnsemble:
    """Finish one fidelity's (len(labels), N) ``outputs``, which no one else holds.

    A sample with any non-finite output (an overflowing state, energy or
    amplitude) raises ArithmeticError naming every such sample; then the
    outputs are normalized per label in place (ArithmeticError, prefixed
    with ``what``, where a label cannot be), frozen and handed to the
    ensemble, which keeps them uncopied. Every sample costs ``cost``.
    """
    bad = np.flatnonzero(~np.isfinite(outputs).all(axis=0))
    if bad.size:
        raise ArithmeticError(f"{what} integration unstable for samples {bad.tolist()}")
    try:
        normalize_in_place(outputs, labels)
    except ArithmeticError as err:
        raise ArithmeticError(f"{what}: {err}") from None
    outputs.setflags(write=False)
    return SnapshotEnsemble(
        outputs=outputs,
        params=params,
        per_sample_cost=np.full(params.shape[0], cost),
        labels=labels,
    )


def gen_oscillator(spec: BenchmarkSpec) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    """Low fidelity: Euler, two scalar QoIs. High fidelity: RK4 trajectory."""
    if spec.name != "oscillator":
        raise ValueError("spec is not an oscillator spec")
    params = parameter_table(spec)
    omega, gamma = params[:, 0], params[:, 1]

    lf_dt = spec.lf_settings["dt"]
    lf_steps = int(round(spec.lf_settings["horizon"] / lf_dt))
    lf_out = _oscillator_qois(omega, gamma, lf_dt, lf_steps, "euler")
    lf = _ensemble(lf_out, params, float(lf_steps), ("energy", "amplitude"), "low-fidelity")

    hf_dt = spec.hf_settings["dt"]
    hf_steps = int(round(spec.hf_settings["horizon"] / hf_dt))
    traj_points = int(spec.hf_settings["trajectory_points"])
    hf_out = _oscillator_qois(omega, gamma, hf_dt, hf_steps, "rk4", traj_points)
    hf_labels = ("trajectory",) * traj_points + ("energy", "amplitude")
    hf = _ensemble(hf_out, params, float(hf_steps), hf_labels, "high-fidelity")
    return lf, hf


# === softened-gravity cluster ===


def nbody_initial_state(bodies: int, seed: int, fidelity_tag: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Deterministic cluster: positions in the unit ball, unit solid rotation.

    Positions are centered so the total momentum of the rotation field
    vanishes. Returns positions, the velocities of a rotation at unit
    angular speed about z, and the initial cluster radius (the softening
    length is a fraction of it).
    """
    rng = np.random.default_rng([seed, fidelity_tag])
    direction = rng.normal(size=(bodies, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = rng.uniform(size=bodies) ** (1.0 / 3.0)
    pos = direction * radius[:, None]
    pos -= pos.mean(axis=0)
    vel_unit = np.cross(np.array([0.0, 0.0, 1.0]), pos)
    cluster_radius = float(np.max(np.linalg.norm(pos, axis=1)))
    return pos, vel_unit, cluster_radius


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


def _nbody_fidelity(params, settings, seed, fidelity_tag) -> SnapshotEnsemble:
    """One fidelity's normalized QoIs over ``params``; an overflowing run
    raises ArithmeticError naming the unstable samples, and no numpy warning."""
    bodies = int(settings["bodies"])
    dt, horizon, g_const = settings["dt"], settings["horizon"], settings["g_const"]
    steps = int(round(horizon / dt))

    pos0, vel_unit, cluster_radius = nbody_initial_state(bodies, seed, fidelity_tag)
    eps = settings["softening_fraction"] * cluster_radius
    qois = np.empty((3, params.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (m_total, rotation) in enumerate(params):
            masses = np.full(bodies, m_total / bodies)
            pos, vel = simulate_nbody(
                pos0, rotation * vel_unit, masses, dt, horizon, eps, g_const
            )
            qois[0, j] = _nbody_energy(pos, vel, masses, eps, g_const)
            qois[1, j] = float(np.mean(np.linalg.norm(pos, axis=1)))
            qois[2, j] = float(np.mean(np.linalg.norm(vel, axis=1)))
    labels = ("energy", "mean_distance", "mean_speed")
    return _ensemble(qois, params, float(bodies**2 * steps), labels, f"{bodies}-body")


def gen_nbody(spec: BenchmarkSpec) -> tuple[SnapshotEnsemble, SnapshotEnsemble]:
    """Two cluster sizes over a (total mass, rotation) grid."""
    if spec.name != "nbody":
        raise ValueError("spec is not an nbody spec")
    params = parameter_table(spec)
    return (
        _nbody_fidelity(params, spec.lf_settings, spec.seed, 0),
        _nbody_fidelity(params, spec.hf_settings, spec.seed, 1),
    )
