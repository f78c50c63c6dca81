"""Synthetic two-fidelity benchmark generators.

Both generators are pure functions of their spec (the seed lives inside
the spec), produce a full parameter grid, and return a matched pair of
low- and high-fidelity snapshot ensembles with per-sample cost columns
proportional to the work each fidelity performs.

* oscillator: a damped linear oscillator. The low-fidelity model is a
  coarse forward-Euler run, stepped in place in O(N) memory and reduced
  to two scalar quantities of interest, so its output space is
  deliberately low dimensional; the high-fidelity model is a fine RK4 run
  that keeps the sampled trajectory. As the ODE is linear, an RK4 step is
  one 2x2 matrix per sample: only the states at block starts are chained,
  each kept state is one product with a table of the matrix's powers, and
  a block's energy one 2x2 Gram form.
* nbody: a softened-gravity cluster with a rotation parameter. Both
  fidelities report the same three scalar quantities and differ only in
  body count.

Every fidelity ends in one finish step, ``_ensemble``: a sample with a
non-finite output raises ArithmeticError naming it, and the outputs are
normalized per QoI label, frozen and handed to the ensemble uncopied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import _BLOCK_DOUBLES, SnapshotEnsemble, checked_number, checked_object, normalize_in_place

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
        # a misspelt setting would otherwise run silently at its default
        lf = {**lf_defaults, **checked_object(self.lf_settings, lf_defaults, f"{self.name} lf settings")}
        hf = {**hf_defaults, **checked_object(self.hf_settings, hf_defaults, f"{self.name} hf settings")}
        fidelities = (("lf", lf, lf_defaults), ("hf", hf, hf_defaults))
        # each value takes the kind of its default (``checked_number``): an
        # integer for the seed, an axis count and an integer setting, a
        # number for an axis bound and any other setting
        for fidelity, settings, defaults in fidelities:
            for key, kind in defaults.items():
                settings[key] = checked_number(settings[key], f"{fidelity} {key}", integer=isinstance(kind, int))
        seed = checked_number(self.seed, "seed", integer=True)
        grid = tuple((str(n), checked_number(lo, f"axis {n} lo"), checked_number(hi, f"axis {n} hi"),
                      checked_number(c, f"axis {n} count", integer=True)) for n, lo, hi, c in self.grid)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        for name, lo, hi, count in grid:
            if count < 1:
                raise ValueError(f"axis {name} needs at least one point")
            if count > 1 and not lo < hi:
                raise ValueError(f"axis {name} needs lo < hi, got ({lo}, {hi})")
        # the oscillator's first axis is omega; the amplitude divides by it
        if self.name == "oscillator" and not grid[0][1] > 0.0:
            name, lo = grid[0][:2]
            raise ValueError(f"axis {name} needs lo > 0 (the first oscillator axis is omega), got {lo}")
        for fidelity, settings, _ in fidelities:
            for key in ("dt", "horizon"):
                if not settings[key] > 0.0:
                    raise ValueError(f"{fidelity} {key} must be positive, got {settings[key]}")
            if settings["dt"] > settings["horizon"]:
                raise ValueError(f"{fidelity} dt must not exceed its horizon, got {settings}")
            # numpy sizes an axis by a signed 64-bit integer
            if self.name == "nbody" and not 2 <= settings["bodies"] < 2**63:
                raise ValueError(f"{fidelity} bodies must be at least 2 and below 2**63, got {settings['bodies']}")
        # the trajectory stride, HF steps // points, must be at least one step
        steps = int(round(hf["horizon"] / hf["dt"]))
        if self.name == "oscillator" and not 1 <= hf["trajectory_points"] <= steps:
            raise ValueError(f"hf trajectory_points must lie in [1, {steps}], got {hf['trajectory_points']}")
        object.__setattr__(self, "seed", seed)
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


@np.errstate(over="ignore", invalid="ignore")
def _euler_qois(omega, gamma, dt, steps):
    """One (2, n_samples) array: the time-averaged energy and the final
    amplitude of each sample's forward-Euler run from (x, v) = (1, 0).

    The state is stepped in place, in straight-line ufunc calls on views
    bound once. Each call performs one operation of
    tests/oracles.integrate_oscillator_dense, on the same operands in the
    same order, so every state rounds as there, bit for bit. Each state's
    energy 0.5 * (v**2 + w2 * x**2) is added to a running total in step
    order, the order in which the oracle's mean over the trajectory adds
    them (one sample sums pairwise there, but normalizes to 1). Memory is
    O(N) whatever the step count. At small N a call costs its dispatch,
    so the step's scalar is a 0-d float64 array: a Python float is
    converted per call. An unstable sample overflows to a non-finite
    output without a numpy warning; the caller's output check names it.
    """
    n = omega.size
    # z = (x, v, a): as x' = v, the state y0 = (x, v) and slope K0 = (v, a)
    # are the overlapping views z[0:2] and z[1:3]
    z = np.empty((3, n))
    y0, K0, a0 = z[0:2], z[1:3], z[2]
    x, v = y0
    x[...], v[...] = 1.0, 0.0
    w2 = omega**2
    coef = np.stack([-w2, gamma])  # a = -w2 * x - gamma * v is P0 - P1, P = coef * y0
    P, S = np.empty((2, 2, n))
    P0, P1 = P
    sq = np.empty((2, n))
    x2, e = sq  # x**2 then w2 * x**2, v**2 then the state's energy
    out = np.zeros((2, n))
    total = out[0]  # 0 + the first state's energy is that energy
    dt = np.array(dt)
    mul, add, sub, square = np.multiply, np.add, np.subtract, np.square
    for step in range(steps + 1):
        if step:
            mul(coef, y0, P)
            sub(P0, P1, a0)
            add(y0, mul(dt, K0, S), y0)  # y0 + dt * K0
        square(y0, sq)
        mul(w2, x2, x2)
        add(e, x2, e)
        mul(0.5, e, e)
        add(total, e, total)
    np.divide(total, steps + 1, out=total)
    out[1] = np.sqrt(x**2 + (v / omega) ** 2)
    return out


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


def _gram(powers, half_w2):
    """Sum over a slice of the table of P_k^T diag(omega**2 / 2, 1/2) P_k, shaped (2, 2, N):
    y^T G y is the energy of the states P_k y, summed."""
    x_rows, v_rows = powers[:, 0], powers[:, 1]
    return half_w2 * np.einsum("kin,kjn->ijn", x_rows, x_rows) + 0.5 * np.einsum("kin,kjn->ijn", v_rows, v_rows)


@np.errstate(over="ignore", invalid="ignore")
def _rk4_qois(omega, gamma, dt, steps, points):
    """One (points + 2, n_samples) array: rows ``stride * (1..points)`` of
    x, ``stride = steps // points``, then the time-averaged energy and the
    final amplitude of each sample's RK4 run from (x, v) = (1, 0), from the
    states at block starts alone.

    Blocks are ``rows`` steps, at most _BLOCK_DOUBLES // (4 * N): the
    table of the block's step-matrix powers takes 4 doubles per sample and
    row. Block b starts at y_b, the state at step b * rows, and its steps are
    P_k y_b for the table rows P_k = R**(k + 1) of ``_rk4_powers``. Only
    the starts are chained, y_(b+1) = P_(rows-1) y_b, and each sampled row
    and the final state is the one product P_k y_b, as the per-step block
    of the same rows forms it: the same einsum arithmetic, so the same
    bits. The energy of a block is y_b^T G y_b with G its ``_gram``, the
    same for every full block, so the full blocks' energy is G's inner
    product with sum_b y_b y_b^T; the last block takes the Gram of a
    prefix of the table, and step 0 adds omega**2 / 2.

    Block starts are chained in chunks of max(1, _BLOCK_DOUBLES // (4 * N))
    states, and sampled rows formed in groups of half as many, so the
    temporaries beside the table stay within _BLOCK_DOUBLES doubles: memory
    is O(_BLOCK_DOUBLES + points * N) whatever the step count. An unstable
    sample overflows to a non-finite output without a numpy warning; the
    caller's output check names it.
    """
    n = omega.size
    rows = min(steps, max(1, _BLOCK_DOUBLES // (4 * n)))
    out = np.empty((points + 2, n))
    powers = _rk4_powers(omega, gamma, dt, rows)
    blocks = -(-steps // rows)
    last = steps - (blocks - 1) * rows  # the steps of the last block, 1..rows
    half_w2 = 0.5 * omega**2
    gram_last = _gram(powers[:last], half_w2)
    gram = gram_last + _gram(powers[last:], half_w2) if last < rows else gram_last
    # sampled step s is table row s - 1 - b * rows of block b = (s - 1) // rows
    stride = steps // max(points, 1)
    before = stride * np.arange(1, points + 1) - 1
    block, row = np.divmod(before, rows)
    width, group = max(1, _BLOCK_DOUBLES // (4 * n)), max(1, _BLOCK_DOUBLES // (8 * n))
    starts = np.empty((width, 2, n))
    starts[0, 0], starts[0, 1] = 1.0, 0.0
    advance = powers[rows - 1]
    moments = np.zeros((2, 2, n))  # sum of y_b y_b^T over the full blocks
    sampled = 0
    for first in range(0, blocks, width):
        count = min(width, blocks - first)
        if first:
            np.einsum("ijn,jn->in", advance, starts[width - 1], out=starts[0])
        for b in range(1, count):
            np.einsum("ijn,jn->in", advance, starts[b - 1], out=starts[b])
        end = min(points, (first + count) * rows // stride)  # the samples before the next chunk
        for p in range(sampled, end, group):
            q = slice(p, min(end, p + group))
            np.einsum("qjn,qjn->qn", powers[row[q], 0], starts[block[q] - first], out=out[q])
        sampled = end
        full = starts[: count if first + count < blocks else count - 1]
        moments += np.einsum("bin,bjn->ijn", full, full)
    y = starts[count - 1]  # the last block's start
    final = np.einsum("ijn,jn->in", powers[last - 1], y)
    energy = half_w2 + np.einsum("ijn,ijn->n", gram, moments) + np.einsum("ijn,in,jn->n", gram_last, y, y)
    np.divide(energy, steps + 1, out=out[points])
    out[points + 1] = np.sqrt(final[0] ** 2 + (final[1] / omega) ** 2)
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
    lf_out = _euler_qois(omega, gamma, lf_dt, lf_steps)
    lf = _ensemble(lf_out, params, float(lf_steps), ("energy", "amplitude"), "low-fidelity")

    hf_dt = spec.hf_settings["dt"]
    hf_steps = int(round(spec.hf_settings["horizon"] / hf_dt))
    traj_points = int(spec.hf_settings["trajectory_points"])
    hf_out = _rk4_qois(omega, gamma, hf_dt, hf_steps, traj_points)
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
