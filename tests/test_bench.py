"""Benchmark generators: determinism, physics sanity, fidelity gaps."""
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bifidelity.bench import (
    _BLOCK_DOUBLES,
    BenchmarkSpec,
    _integrate_blocks,
    _nbody_accel,
    _oscillator_qois,
    default_spec,
    gen_nbody,
    gen_oscillator,
    generate,
    nbody_initial_state,
    parameter_table,
    simulate_nbody,
)
from bifidelity.data import SnapshotEnsemble, normalize_in_place

import oracles


def small_nbody_spec(seed=0):
    return BenchmarkSpec(
        name="nbody",
        grid=(("m_total", 50.0, 500.0, 2), ("rotation", 0.0, 0.9, 2)),
        lf_settings={"bodies": 4, "dt": 0.01, "horizon": 0.5},
        hf_settings={"bodies": 8, "dt": 0.01, "horizon": 0.5},
        seed=seed,
    )


# === grids and specs ===


def test_parameter_table_first_axis_slowest():
    spec = BenchmarkSpec(
        name="nbody", grid=(("a", 0.0, 1.0, 3), ("b", 10.0, 20.0, 2))
    )
    expected = np.array(
        [[0.0, 10.0], [0.0, 20.0], [0.5, 10.0], [0.5, 20.0], [1.0, 10.0], [1.0, 20.0]]
    )
    np.testing.assert_array_equal(parameter_table(spec), expected)
    assert spec.n_samples == 6


def test_default_grid_sizes():
    assert default_spec("oscillator").n_samples == 114
    assert default_spec("nbody").n_samples == 36
    assert default_spec("oscillator").name == "oscillator"
    with pytest.raises(ValueError):
        default_spec("pendulum")


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown benchmark"):
        BenchmarkSpec(name="pendulum", grid=(("a", 0.0, 1.0, 2),))
    b = ("b", 0.1, 0.2, 2)
    with pytest.raises(ValueError, match="at least one point"):
        BenchmarkSpec(name="oscillator", grid=(("a", 0.0, 1.0, 0), b))
    with pytest.raises(ValueError, match="lo < hi"):
        BenchmarkSpec(name="oscillator", grid=(("a", 1.0, 0.0, 2), b))
    # both benchmarks read their two axes by position; another count is refused
    for name in ("oscillator", "nbody"):
        for axes in ((("a", 0.5, 1.0, 2),), (("a", 0.5, 1.0, 2), b, ("c", 0.0, 1.0, 2))):
            with pytest.raises(ValueError, match=f"{name} grid needs 2 axes, got {len(axes)}"):
                BenchmarkSpec(name=name, grid=axes)
    grid = (("a", 0.5, 1.0, 2), b)
    with pytest.raises(ValueError, match="lf dt must be positive"):
        BenchmarkSpec(name="oscillator", grid=grid, lf_settings={"dt": -1.0})
    with pytest.raises(ValueError, match="hf horizon must be positive"):
        BenchmarkSpec(name="oscillator", grid=grid, hf_settings={"horizon": 0.0})
    # trajectory rows need a stride of at least one HF step (10,000 by default)
    for points in (0, -3, 10_001, 1_500):
        settings = {"dt": 0.01, "horizon": 10.0} if points == 1_500 else {}
        with pytest.raises(ValueError, match="trajectory_points must lie in"):
            BenchmarkSpec(name="oscillator", grid=grid,
                          hf_settings={**settings, "trajectory_points": points})
    BenchmarkSpec(name="oscillator", grid=grid, hf_settings={"trajectory_points": 10_000})
    # a step longer than the horizon leaves no step to take
    for fidelity in ("lf", "hf"):
        with pytest.raises(ValueError, match=f"{fidelity} dt must not exceed its horizon"):
            BenchmarkSpec(name="oscillator", grid=grid,
                          **{f"{fidelity}_settings": {"dt": 2.0, "horizon": 1.0}})
    # a cluster needs two bodies
    for bodies in (1, 0, -2):
        for fidelity in ("lf", "hf"):
            with pytest.raises(ValueError, match=f"{fidelity} bodies must be at least 2"):
                BenchmarkSpec(name="nbody", grid=grid, **{f"{fidelity}_settings": {"bodies": bodies}})
    # a setting the benchmark does not read is named, not silently ignored
    cases = [("oscillator", "lf", {"dtt": 3}, "['dtt']"), ("oscillator", "hf", {"bodies": 8}, "['bodies']"),
             ("nbody", "lf", {"trajectory_points": 20, "dtt": 0.1}, "['dtt', 'trajectory_points']")]
    for name, fidelity, settings, named in cases:
        with pytest.raises(ValueError, match=re.escape(f"unknown {fidelity} setting(s) {named} for {name}")):
            BenchmarkSpec(name=name, grid=grid, **{f"{fidelity}_settings": settings})
    # settings left out take the benchmark's defaults, HF bodies included
    spec = BenchmarkSpec(name="nbody", grid=grid, hf_settings={"dt": 0.01})
    assert spec.hf_settings == {**default_spec("nbody").hf_settings, "dt": 0.01}
    assert spec.hf_settings["bodies"] == 64
    # single-point axes may sit anywhere
    BenchmarkSpec(name="oscillator", grid=(("a", 5.0, 5.0, 1), ("b", 0.1, 0.1, 1)))
    # counts and seeds are integers; nothing is truncated
    for count in (6.5, 2.0, True, "6"):
        with pytest.raises(ValueError, match="axis a count must be an integer"):
            BenchmarkSpec(name="oscillator", grid=(("a", 0.0, 1.0, count), b))
    for seed in (1.5, True, "1"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            BenchmarkSpec(name="oscillator", grid=grid, seed=seed)
    assert BenchmarkSpec(name="oscillator", grid=(("a", 0.5, 1.0, np.int64(3)), b)).grid[0][3] == 3
    # so are the integer settings, which the library took truncated: a
    # trajectory of 2.5 points became 2 rows, True one, 8.7 bodies 8
    for points in (2.5, 200.0, True, "200"):
        with pytest.raises(ValueError, match="hf trajectory_points must be an integer"):
            BenchmarkSpec(name="oscillator", grid=grid, hf_settings={"trajectory_points": points})
    for bodies in (8.7, 8.0, True, "8"):
        for fidelity in ("lf", "hf"):
            with pytest.raises(ValueError, match=f"{fidelity} bodies must be an integer"):
                BenchmarkSpec(name="nbody", grid=grid, **{f"{fidelity}_settings": {"bodies": bodies}})
    assert BenchmarkSpec(name="nbody", grid=grid, lf_settings={"bodies": np.int64(4)}).lf_settings["bodies"] == 4
    # a number setting is a finite real, neither a bool nor a string, and is
    # kept as a float: "0.05" was kept as a string, True ran at dt 1.0, and
    # an infinite horizon raised OverflowError
    for name, fidelity, key, value in [("oscillator", "lf", "dt", "0.05"), ("oscillator", "lf", "dt", True),
                                       ("nbody", "lf", "g_const", "x"), ("nbody", "hf", "softening_fraction", None)]:
        with pytest.raises(ValueError, match=f"{fidelity} {key} must be a number, got {re.escape(repr(value))}"):
            BenchmarkSpec(name=name, grid=grid, **{f"{fidelity}_settings": {key: value}})
    for name, fidelity, key, value in [("oscillator", "hf", "horizon", math.inf), ("oscillator", "lf", "dt", math.nan),
                                       ("nbody", "lf", "g_const", -math.inf)]:
        with pytest.raises(ValueError, match=f"{fidelity} {key} must be finite"):
            BenchmarkSpec(name=name, grid=grid, **{f"{fidelity}_settings": {key: value}})
    spec = BenchmarkSpec(name="oscillator", grid=grid, lf_settings={"horizon": np.int64(5)}, hf_settings={"horizon": 10})
    assert type(spec.lf_settings["horizon"]) is float and spec.lf_settings["horizon"] == 5.0
    assert type(spec.hf_settings["horizon"]) is float and spec.hf_settings["horizon"] == 10.0
    assert type(BenchmarkSpec(name="nbody", grid=grid, hf_settings={"g_const": np.float32(2)}).hf_settings["g_const"]) is float
    # so is an axis bound; a seed is non-negative
    for lo, hi in (("1", 2.0), (0.5, True), (None, 1.0)):
        end, bad = ("lo", lo) if not isinstance(lo, float) else ("hi", hi)
        with pytest.raises(ValueError, match=f"axis a {end} must be a number, got {re.escape(repr(bad))}"):
            BenchmarkSpec(name="oscillator", grid=(("a", lo, hi, 2), b))
    assert BenchmarkSpec(name="oscillator", grid=(("a", np.float32(0.5), 1, 2), b)).grid[0][1:3] == (0.5, 1.0)
    for seed in (-1, np.int64(-5)):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            BenchmarkSpec(name="oscillator", grid=grid, seed=seed)
    # the oscillator's first axis is omega, which the amplitude divides by
    for omega in (("omega", 0.0, 2.0, 3), ("omega", -1.0, 2.0, 3), ("omega", 0.0, 0.0, 1),
                  ("omega", np.nan, np.nan, 1)):
        with pytest.raises(ValueError, match="axis omega needs lo > 0"):
            BenchmarkSpec(name="oscillator", grid=(omega, ("gamma", 0.1, 0.2, 2)))
    BenchmarkSpec(name="oscillator", grid=(("omega", 1e-3, 2.0, 3), ("gamma", -1.0, 0.2, 2)))
    BenchmarkSpec(name="nbody", grid=(("m_total", 0.0, 2.0, 3), ("rotation", 0.0, 0.9, 2)))


def test_generators_reject_foreign_specs():
    with pytest.raises(ValueError):
        gen_oscillator(small_nbody_spec())
    with pytest.raises(ValueError):
        gen_nbody(default_spec("oscillator"))


# === oscillator ===


def test_oscillator_shapes_and_labels():
    lf, hf = gen_oscillator(default_spec("oscillator"))
    assert lf.outputs.shape == (2, 114)
    assert hf.outputs.shape == (202, 114)
    assert lf.labels == ("energy", "amplitude")
    assert hf.labels[:2] == ("trajectory", "trajectory")
    assert hf.labels[-2:] == ("energy", "amplitude")
    np.testing.assert_array_equal(lf.params, hf.params)
    # per-sample cost counts integrator steps
    assert np.all(lf.per_sample_cost == 200.0)
    assert np.all(hf.per_sample_cost == 10000.0)


def test_oscillator_outputs_are_energy_normalized():
    lf, hf = gen_oscillator(default_spec("oscillator"))
    for row in lf.outputs:
        assert np.mean(row**2) == pytest.approx(1.0, rel=1e-12)
    traj_energy = np.mean(np.sum(hf.outputs[:200] ** 2, axis=0))
    assert traj_energy == pytest.approx(1.0, rel=1e-12)


def test_oscillator_generation_is_deterministic():
    a_lf, a_hf = gen_oscillator(default_spec("oscillator"))
    b_lf, b_hf = generate(default_spec("oscillator"))
    np.testing.assert_array_equal(a_lf.outputs, b_lf.outputs)
    np.testing.assert_array_equal(a_hf.outputs, b_hf.outputs)


def test_undamped_rk4_conserves_energy():
    _, x, v = oracles.integrate_oscillator(2.0, 0.0, 0.001, 10.0, method="rk4")
    energy = 0.5 * (v**2 + 4.0 * x**2)
    assert np.max(np.abs(energy - energy[0])) / energy[0] <= 1e-6


# RK4 runs by powers of its step matrix, whose states round otherwise
# than the stage-by-stage oracle's: each is held within this fraction of
# the oracle's largest absolute value
RK4_BOUND = 1e-11


def assert_near_oracle(actual, oracle):
    deviation = np.max(np.abs(actual - oracle))
    assert deviation <= RK4_BOUND * np.max(np.abs(oracle)), deviation / np.max(np.abs(oracle))


def assert_integrated_like(method, actual, oracle):
    """Euler states equal the oracle's bit for bit; RK4 states lie within RK4_BOUND."""
    if method == "euler":
        np.testing.assert_array_equal(actual, oracle)
    else:
        assert_near_oracle(actual, oracle)


def test_integrated_trajectories_match_dense_loop_euler_exactly_rk4_within_bound():
    # one block of every step, so the full trajectory comes back
    for omega, gamma, dt, horizon, method in [(2.0, 0.0, 0.001, 10.0, "rk4"),
                                              (3.3, 0.2, 0.01, 7.77, "rk4"),
                                              (5.0, 0.05, 0.05, 10.0, "euler")]:
        t, x, v = oracles.integrate_oscillator(omega, gamma, dt, horizon, method=method)
        xs, vs = oracles.integrate_oscillator_dense([omega], [gamma], dt, horizon, method)
        np.testing.assert_array_equal(t, dt * np.arange(len(xs)))
        assert_integrated_like(method, x, xs[:, 0])
        assert_integrated_like(method, v, vs[:, 0])
    # a 3 x 4 grid in blocks of 7 rows, which divide neither step count:
    # every state of every block, the carried row 0 included
    params = parameter_table(oscillator_spec())
    omega, gamma = params[:, 0], params[:, 1]
    for dt, horizon, method in [(0.01, 1.0, "rk4"), (0.05, 10.0, "euler")]:
        steps = int(round(horizon / dt))
        xs, vs = oracles.integrate_oscillator_dense(omega, gamma, dt, horizon, method)
        done = 0
        for y in _integrate_blocks(omega, gamma, dt, steps, method, 7):
            assert_integrated_like(method, y[:, 0], xs[done : done + len(y)])
            assert_integrated_like(method, y[:, 1], vs[done : done + len(y)])
            done += len(y) - 1
        assert done == steps and steps % 7


def test_integrator_rejects_unknown_method():
    with pytest.raises(ValueError, match="integrator"):
        oracles.integrate_oscillator(1.0, 0.1, 0.05, 1.0, method="verlet")


def test_fidelities_disagree_at_stiff_corner():
    # coarse Euler inflates the amplitude badly at high frequency
    def amplitude(method, dt):
        _, x, v = oracles.integrate_oscillator(5.0, 0.05, dt, 10.0, method=method)
        return np.sqrt(x[-1] ** 2 + (v[-1] / 5.0) ** 2)

    coarse = amplitude("euler", 0.05)
    fine = amplitude("rk4", 0.001)
    assert abs(coarse - fine) / fine >= 0.01


def oscillator_spec(grid=(("omega", 1.0, 5.0, 3), ("gamma", 0.05, 0.5, 4)), **hf):
    return BenchmarkSpec(
        name="oscillator", grid=grid, hf_settings={"dt": 0.01, "horizon": 10.0, **hf}
    )


# the osc-wide-baseline benchmark workload: N=2000, HF dt 0.01
WIDE_SPEC = BenchmarkSpec(name="oscillator", grid=(("omega", 1.0, 5.0, 40), ("gamma", 0.05, 0.5, 50)),
                          hf_settings={"dt": 0.01})


def dense_generation(spec):
    """gen_oscillator's ensembles, made from whole trajectories by the oracle."""
    params = parameter_table(spec)
    lf_raw, hf_raw = oracles.oscillator_outputs_dense(
        params[:, 0], params[:, 1], spec.lf_settings, spec.hf_settings
    )
    points = spec.hf_settings["trajectory_points"]
    pairs = [(lf_raw, ("energy", "amplitude")), (hf_raw, ("trajectory",) * points + ("energy", "amplitude"))]
    cost = np.ones(len(params))
    for raw, labels in pairs:
        normalize_in_place(raw, labels)  # the oracle's own arrays, held nowhere else
    return tuple(SnapshotEnsemble(outputs=raw, params=params, per_sample_cost=cost) for raw, _ in pairs)


@pytest.mark.parametrize(
    "spec",
    [
        default_spec("oscillator"),
        # HF steps not a multiple of the block, and a multi-block LF run
        BenchmarkSpec(name="oscillator", grid=(("omega", 1.0, 5.0, 6), ("gamma", 0.05, 0.5, 19)),
                      lf_settings={"dt": 0.02},
                      hf_settings={"dt": 0.003, "horizon": 7.0, "trajectory_points": 37}),
        # every step a trajectory point (stride 1)
        oscillator_spec(trajectory_points=1000),
        # every sampled row is the last row of a block: 12 samples take
        # blocks of _BLOCK_DOUBLES // (4 * 12) steps
        oscillator_spec(horizon=0.01 * 4 * (_BLOCK_DOUBLES // (4 * 12)), trajectory_points=4),
        # one sample: numpy sums its energy pairwise, not row by row, but
        # its normalized energy is 1.0 either way
        BenchmarkSpec(name="oscillator", grid=(("omega", 2.0, 2.0, 1), ("gamma", 0.1, 0.1, 1))),
        WIDE_SPEC,
    ],
    ids=["default", "odd-steps", "stride-1", "block-boundary", "one-sample", "wide"],
)
def test_streamed_oscillator_matches_dense_generation_lf_exactly_hf_within_bound(spec):
    lf, hf = gen_oscillator(spec)
    dense_lf, dense_hf = dense_generation(spec)
    np.testing.assert_array_equal(lf.outputs, dense_lf.outputs)
    # each normalized QoI group: the trajectory rows, the energy, the amplitude
    for rows in hf.label_groups().values():
        assert_near_oracle(hf.outputs[rows], dense_hf.outputs[rows])


def traced_generation(spec):
    tracemalloc.start()
    try:
        _, hf = gen_oscillator(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, hf


def test_oscillator_generation_streams_its_trajectory():
    # whole trajectories of the default spec take 2 x 10,001 x 114 doubles
    # (18 MB) and peaked above 40 MB; the blocks and 200 rows need ~0.8 MB
    peak, _ = traced_generation(default_spec("oscillator"))
    assert peak <= 8e6
    # at N=2000 the HF output (3.2 MB) sets the peak: it is written once,
    # normalized in place over column blocks and kept by its ensemble
    # without a copy. Fixed blocks of 256 steps and six copies of it
    # peaked at 6.3x its bytes; a squared copy of the trajectory group and
    # the ensemble's copy at 2.2x.
    peak, hf = traced_generation(WIDE_SPEC)
    assert peak <= 1.5 * hf.outputs.nbytes, peak / hf.outputs.nbytes


def test_unstable_low_fidelity_raises():
    cases = [
        ((("omega", 1000.0, 1000.0, 1), ("gamma", 0.05, 0.5, 3)), {"dt": 0.05, "horizon": 10.0}),
        # only omega = 100 overflows
        ((("omega", 1.0, 100.0, 2), ("gamma", 0.05, 0.5, 3)), {"dt": 0.05, "horizon": 50.0}),
    ]
    for grid, lf_settings in cases:
        spec = BenchmarkSpec(
            name="oscillator",
            grid=grid,
            lf_settings=lf_settings,
            hf_settings={"dt": 0.001, "horizon": 10.0, "trajectory_points": 200},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ArithmeticError) as expected:
                dense_generation(spec)
            with pytest.raises(ArithmeticError, match="unstable") as raised:
                gen_oscillator(spec)
        # the same samples are named: those whose final x is not finite
        assert str(raised.value) == str(expected.value)


def test_unstable_sample_is_named_when_it_overflows_after_the_first_block():
    # 40 samples take blocks of _BLOCK_DOUBLES // 160 of the 6,500 LF
    # steps; only the largest omega's states overflow, in a later block,
    # but from sample 25 on the energy or amplitude overflows, and every
    # sample with a non-finite output is named
    spec = BenchmarkSpec(name="oscillator", grid=(("omega", 1.0, 10.0, 40), ("gamma", 0.0, 0.0, 1)),
                         lf_settings={"dt": 0.05, "horizon": 325.0})
    params = parameter_table(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        xs, vs = oracles.integrate_oscillator_dense(params[:, 0], params[:, 1], 0.05, 325.0, "euler")
        qois = np.vstack(oracles.oscillator_qois_dense(params[:, 0], xs, vs))
        with pytest.raises(ArithmeticError) as raised:
            gen_oscillator(spec)
    finite = np.isfinite(xs) & np.isfinite(vs)
    first_overflow = int(np.argmin(finite.all(axis=1)))
    rows = _BLOCK_DOUBLES // (4 * spec.n_samples)
    assert rows < first_overflow < len(xs) - 1
    assert np.nonzero(~finite.all(axis=0))[0].tolist() == [39]
    assert np.nonzero(~np.isfinite(qois).all(axis=0))[0].tolist() == list(range(25, 40))
    assert str(raised.value) == f"low-fidelity integration unstable for samples {list(range(25, 40))}"


def test_unstable_high_fidelity_raises():
    # RK4 is unstable beyond omega * dt ~ 2.8: at dt 0.5 omega 1 stays
    # stable and omega 12 (samples 3-5) overflows; forward Euler at dt
    # 0.01 stays finite for both
    spec = BenchmarkSpec(
        name="oscillator",
        grid=(("omega", 1.0, 12.0, 2), ("gamma", 0.05, 0.5, 3)),
        lf_settings={"dt": 0.01},
        hf_settings={"dt": 0.5, "horizon": 500.0, "trajectory_points": 10},
    )
    params = parameter_table(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        finite = [np.all(np.isfinite(oracles.integrate_oscillator(w, g, 0.5, 500.0)[1])) for w, g in params]
        with pytest.raises(ArithmeticError) as raised:
            gen_oscillator(spec)
    assert np.flatnonzero(np.logical_not(finite)).tolist() == [3, 4, 5]
    assert str(raised.value) == "high-fidelity integration unstable for samples [3, 4, 5]"


def test_unstable_integration_raises_without_numpy_warnings():
    # warnings are errors here: the overflow itself must stay silent, and
    # the finiteness checks name the unstable samples
    lf_unstable = BenchmarkSpec(name="oscillator", grid=(("omega", 1000.0, 1000.0, 1), ("gamma", 0.05, 0.5, 3)))
    with pytest.raises(ArithmeticError, match=r"low-fidelity integration unstable for samples \[0, 1, 2\]"):
        gen_oscillator(lf_unstable)
    hf_unstable = BenchmarkSpec(
        name="oscillator",
        grid=(("omega", 10.0, 12.0, 2), ("gamma", 0.05, 0.5, 3)),
        lf_settings={"dt": 0.01},
        hf_settings={"dt": 0.5, "horizon": 500.0, "trajectory_points": 10},
    )
    with pytest.raises(
        ArithmeticError, match=r"high-fidelity integration unstable for samples \[0, 1, 2, 3, 4, 5\]"
    ):
        gen_oscillator(hf_unstable)


def test_rk4_step_matrix_names_the_oracles_unstable_samples_without_warnings():
    # warnings are errors around the package's run. At omega = 1e80 the
    # step matrix itself overflows ((omega dt)**4 passes 1e308); on the
    # second grid omega * dt runs from 2.6 to 3.0 across RK4's stability
    # edge at 2 sqrt(2) ~ 2.83: samples 10-15 grow, to 1e256 at most, and
    # stay finite, while samples 16-17 overflow
    cases = [
        (np.array([1.0, 1e80, 2.0, 1e80]), np.array([0.1, 0.1, 0.3, 0.0]), 0.01, 100, [1, 3]),
        (np.repeat(np.linspace(26.0, 30.0, 9), 2), np.tile([0.0, 0.5], 9), 0.1, 1000, [16, 17]),
    ]
    for omega, gamma, dt, steps, unstable in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            xs, vs = oracles.integrate_oscillator_dense(omega, gamma, dt, dt * steps, "rk4")
            dense = np.vstack([xs[100 * np.arange(1, steps // 100 + 1)], *oracles.oscillator_qois_dense(omega, xs, vs)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _oscillator_qois(omega, gamma, dt, steps, "rk4", steps // 100)
        assert np.flatnonzero(~np.isfinite(dense).all(axis=0)).tolist() == unstable
        assert np.flatnonzero(~np.isfinite(out).all(axis=0)).tolist() == unstable


def test_unstable_nbody_raises_without_numpy_warnings():
    # warnings are errors here: the leapfrog's overflow stays silent, and
    # the error names the fidelity by its body count and each sample with
    # a non-finite QoI. At G = 10^153.5 only the heavier 4-body clusters
    # (m_total 500, samples 2 and 3) overflow; at G = 1e300 every 8-body one
    spec = small_nbody_spec()
    lf_unstable = replace(spec, lf_settings={**spec.lf_settings, "g_const": 10.0**153.5})
    with pytest.raises(ArithmeticError, match=r"^4-body integration unstable for samples \[2, 3\]$"):
        gen_nbody(lf_unstable)
    hf_unstable = replace(spec, hf_settings={**spec.hf_settings, "g_const": 1e300})
    with pytest.raises(ArithmeticError, match=r"^8-body integration unstable for samples \[0, 1, 2, 3\]$"):
        gen_nbody(hf_unstable)


# === nbody ===


def test_nbody_shapes_costs_and_determinism():
    spec = small_nbody_spec()
    lf, hf = gen_nbody(spec)
    assert lf.outputs.shape == (3, 4)
    assert hf.outputs.shape == (3, 4)
    assert lf.labels == ("energy", "mean_distance", "mean_speed")
    np.testing.assert_array_equal(lf.params, hf.params)
    assert np.all(lf.per_sample_cost == 4.0**2 * 50)
    assert np.all(hf.per_sample_cost == 8.0**2 * 50)
    lf2, hf2 = generate(small_nbody_spec())
    np.testing.assert_array_equal(lf.outputs, lf2.outputs)
    np.testing.assert_array_equal(hf.outputs, hf2.outputs)


def test_initial_state_momentum_free():
    pos, vel, radius = nbody_initial_state(16, seed=3, fidelity_tag=0)
    assert pos.shape == (16, 3) and vel.shape == (16, 3)
    assert np.abs(pos.mean(axis=0)).max() <= 1e-12
    # solid rotation about z of centered positions carries no net momentum
    assert np.abs(vel.mean(axis=0)).max() <= 1e-12
    assert 0.0 < radius <= 1.5


def test_symmetric_pair_keeps_center_fixed():
    pos = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    vel = np.zeros((2, 3))
    out_pos, out_vel = simulate_nbody(pos, vel, np.ones(2), 0.01, 1.0, 0.1, 1.0)
    assert np.abs(out_pos.mean(axis=0)).max() <= 1e-10
    assert np.abs(out_pos[0] + out_pos[1]).max() <= 1e-10
    # mutual attraction pulls the pair inward
    assert out_pos[0, 0] < 1.0
    assert out_vel[0, 0] < 0.0


def test_gravity_off_means_ballistic_motion():
    pos = np.random.default_rng(4).normal(size=(5, 3))
    vel = np.random.default_rng(5).normal(size=(5, 3))
    out_pos, out_vel = simulate_nbody(pos, vel, np.ones(5), 0.01, 1.0, 0.1, 0.0)
    np.testing.assert_array_equal(out_vel, vel)
    np.testing.assert_allclose(out_pos, pos + 1.0 * vel, atol=1e-12)


def test_body_count_changes_collapse_profile():
    # the two fidelities must actually disagree for the surrogate to matter
    def mean_distance(bodies, tag):
        pos0, vel_unit, radius = nbody_initial_state(bodies, 0, tag)
        masses = np.full(bodies, 50.0 / bodies)
        pos, _ = simulate_nbody(
            pos0, 0.0 * vel_unit, masses, 0.005, 2.0, 0.05 * radius, 1.0
        )
        return float(np.mean(np.linalg.norm(pos, axis=1)))

    coarse = mean_distance(8, 0)
    fine = mean_distance(64, 1)
    assert abs(coarse - fine) / fine >= 0.05


@pytest.mark.parametrize("bodies", [2, 8, 64])
def test_nbody_forces_match_einsum_oracle_bit_for_bit(bodies):
    rng = np.random.default_rng(bodies)
    for _ in range(5):
        pos = rng.normal(size=(bodies, 3)) * rng.uniform(0.1, 10.0)
        masses = rng.uniform(0.5, 2.0, size=bodies)
        eps, g_const = rng.uniform(0.01, 0.5), rng.uniform(0.5, 2.0)
        np.testing.assert_array_equal(
            _nbody_accel(pos, masses, eps, g_const),
            oracles.nbody_accel_einsum(pos, masses, eps, g_const),
        )
