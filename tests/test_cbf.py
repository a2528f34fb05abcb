import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from eigenapprox import (
    AccuracyError,
    AliasingError,
    CBFParams,
    CBFState,
    ConfigError,
    MollifierSpec,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    Trajectory,
    cbf_rhs,
    divergence_residual,
    energy_ledger,
    energy_ledgers,
    from_spectral_field,
    load_trajectory,
    lp_norm,
    random_divergence_free_state,
    save_trajectory,
    scale,
    simulate,
    space_mollify,
    state_divergence_residual,
    state_energy,
    state_enstrophy,
    step,
    subtract,
    taylor_green,
    time_mollify,
    to_spectral_field,
)
from eigenapprox import cbf

TWO_PI2 = 2.0 * math.pi**2


def _params(**kw):
    base = dict(mu=0.1, dim=2, resolution=16, dt=2e-3, t_final=0.1, snapshot_every=10)
    base.update(kw)
    return CBFParams(**base)


def test_params_validation():
    for bad in (
        dict(mu=0.0),
        dict(mu=-1.0),
        dict(beta=-0.1),
        dict(r=-1.0),
        dict(dim=4),
        dict(resolution=15),
        dict(resolution=6),
        dict(dt=0.0),
        dict(t_final=0.0),
        dict(snapshot_every=0),
    ):
        with pytest.raises(ConfigError):
            _params(**bad)


def test_dealias_cutoff_tightens_with_absorption():
    assert _params(resolution=16).dealias_kmax == 5  # 2/3 rule
    assert _params(resolution=16, beta=1.0).dealias_kmax == 3  # 1/2 rule for the cubic term


def test_taylor_green_invariants():
    p = _params()
    s = taylor_green(p)
    assert state_energy(s, p) == pytest.approx(TWO_PI2, rel=1e-14)
    assert state_enstrophy(s, p) == pytest.approx(2.0 * TWO_PI2, rel=1e-14)
    assert state_divergence_residual(s) < 1e-14
    with pytest.raises(ConfigError):
        taylor_green(CBFParams(mu=0.1, dim=3, resolution=16, dt=1e-3, t_final=0.1))


def test_taylor_green_rhs_is_purely_viscous():
    # the advection term of this vortex is a gradient, so the projection
    # removes it and the rhs reduces to -mu |k|^2 u with |k|^2 = 2
    p = _params()
    s = taylor_green(p)
    rhs = cbf_rhs(s, p)
    lin = scale(to_spectral_field(s), -2.0 * p.mu)
    assert subtract(rhs, lin).l2() < 1e-13


def test_zero_state_rhs_is_zero():
    p = _params()
    z = CBFState(0.0, np.zeros((2, 16, 9), dtype=complex))
    assert cbf_rhs(z, p).l2() == 0.0


def test_taylor_green_exact_decay():
    # the integrating factor handles the viscous term exactly and the
    # projected nonlinearity vanishes, so the decay is exact to roundoff
    p = _params()
    traj = simulate(taylor_green(p), p)
    for t, s in zip(traj.times, traj.states):
        want = TWO_PI2 * math.exp(-4.0 * p.mu * t)
        assert state_energy(s, p) == pytest.approx(want, rel=1e-12)
        assert state_divergence_residual(s) < 1e-14


def test_step_keeps_support_and_structure():
    p = _params(beta=1.0)
    s = random_divergence_free_state(p, kmax_init=2, amplitude=1.0, seed=1)
    s1 = step(s, p)
    assert s1.time == pytest.approx(p.dt)
    assert state_divergence_residual(s1) < 1e-13
    f = to_spectral_field(s1)
    assert divergence_residual(f) < 1e-13
    kmax = p.dealias_kmax
    assert all(max(abs(ki) for ki in idx.k) <= kmax for idx in f.coefficients)


def _wavenumbers(dim, n):
    """Broadcastable k_j arrays of the rfftn layout (last axis halved)."""
    full = np.fft.fftfreq(n, d=1.0 / n)
    half = np.arange(n // 2 + 1, dtype=float)
    return np.meshgrid(*([full] * (dim - 1) + [half]), indexing="ij", sparse=True)


def _advective_nonlinear(coeffs, params):
    """-P[(u.grad)u + beta |u|^r u] in advective form u_j d_j u_i: one
    numpy.fft call per component and per derivative, projected per mode and
    cut to the dealias mask with a zero mean."""
    dim, n = coeffs.shape[0], coeffs.shape[1]
    real_shape, axes = (n,) * dim, tuple(range(dim))
    ks = _wavenumbers(dim, n)
    u = [np.fft.irfftn(coeffs[i], s=real_shape, axes=axes) for i in range(dim)]
    speed_r = sum(ui * ui for ui in u) ** (params.r / 2.0)
    f = np.empty_like(coeffs)
    for i in range(dim):
        conv = sum(u[j] * np.fft.irfftn(1j * ks[j] * coeffs[i], s=real_shape, axes=axes) for j in range(dim))
        f[i] = np.fft.rfftn(conv + params.beta * speed_r * u[i], axes=axes)
    k2 = sum(k * k for k in ks)
    k2[(0,) * dim] = 1.0
    dot = sum(ks[i] * f[i] for i in range(dim)) / k2
    out = np.array([-(f[i] - ks[i] * dot) for i in range(dim)])
    kept = np.ones(k2.shape, dtype=bool)
    for k in ks:
        kept = kept & (np.abs(k) <= params.dealias_kmax)
    out *= kept
    out[(slice(None),) + (0,) * dim] = 0.0
    return out


def _kept_index(n, kmax, dim):
    """Positions of the kept block in the full rfftn layout: wavenumbers 0..K
    then -K..-1 on each full axis, 0..K on the halved last axis."""
    full = np.r_[0 : kmax + 1, n - kmax : n]
    return (slice(None),) + np.ix_(*([full] * (dim - 1) + [np.arange(kmax + 1)]))


def _kept(coeffs, kmax):
    return coeffs[_kept_index(coeffs.shape[1], kmax, coeffs.shape[0])]


def _full(block, n):
    dim, kmax = block.shape[0], block.shape[-1] - 1
    out = np.zeros((dim,) + (n,) * (dim - 1) + (n // 2 + 1,), dtype=complex)
    out[_kept_index(n, kmax, dim)] = block
    return out


def _check_transforms(dim, n, kmax, m):
    # block -> grid is irfftn of the block zero-padded into the n-point
    # layout, and grid -> block is the kept block of rfftn, for m components
    rng = np.random.default_rng([dim, n, m, kmax])
    axes, kept = tuple(range(1, dim + 1)), _kept_index(n, kmax, dim)
    shape = (m,) + (2 * kmax + 1,) * (dim - 1) + (kmax + 1,)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    padded = np.zeros((m,) + (n,) * (dim - 1) + (n // 2 + 1,), dtype=complex)
    padded[kept] = block
    want = scipy.fft.irfftn(padded, s=(n,) * dim, axes=axes)
    got = cbf._block_to_grid(block, n)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    grid = rng.standard_normal((m,) + (n,) * dim)
    want = scipy.fft.rfftn(grid, axes=axes)[kept]
    got = cbf._grid_to_block(grid, kmax)
    assert got.shape == want.shape == shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("beta", [0.0, 1.0])  # the 2/3 and the 1/2 cutoff
@pytest.mark.parametrize("n", [8, 10, 16, 32, 48, 64])
@pytest.mark.parametrize("m", [1, 3])
def test_pruned_transforms_match_the_full_layout_transforms(dim, beta, n, m):
    _check_transforms(dim, n, _params(dim=dim, beta=beta, resolution=n).dealias_kmax, m)


@pytest.mark.parametrize(
    "dim, resolution, pad",
    # n = 128 and 256 pin the exact (j k) mod n phases of `_dft_matrices`
    # (without the reduction the error is about 1e-14 at 128, 3e-14 at 256);
    # pad 2 is the ledger's doubled grid
    [(2, 128, 1), (2, 256, 1), (2, 16, 2), (2, 32, 2), (3, 16, 2), (3, 32, 2)],
)
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_transforms_match_on_the_large_and_the_ledger_grids(dim, resolution, pad, beta):
    _check_transforms(dim, pad * resolution, _params(dim=dim, beta=beta, resolution=resolution).dealias_kmax, 3)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    kmax=st.integers(1, 6),
    extra=st.integers(0, 12),
    m=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_round_trip_returns_the_block_of_a_real_grid(dim, kmax, extra, m, seed):
    # the kept block of a real grid is conjugate-symmetric where it must be,
    # and on any grid of n >= 2K+1 points the inverse is exact on it
    n = 2 * kmax + 1 + extra
    block = cbf._grid_to_block(np.random.default_rng(seed).standard_normal((m,) + (n,) * dim), kmax)
    back = cbf._grid_to_block(cbf._block_to_grid(block, n), kmax)
    assert np.max(np.abs(back - block)) <= 1e-14 * np.max(np.abs(block))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("r", [2.0, 3.0])
def test_divergence_form_matches_advective_oracle(dim, beta, r):
    # r = 3 takes the non-integer power |u|^(3/2) path
    p = _params(dim=dim, beta=beta, r=r)
    s = random_divergence_free_state(p, kmax_init=p.dealias_kmax, amplitude=3.0, seed=11)
    want = _advective_nonlinear(s.coeffs, p)
    got = _full(cbf._nonlinear(_kept(s.coeffs, p.dealias_kmax), p), p.resolution)
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, beta, r", [(2, 0.0, 2.0), (3, 1.0, 3.0)])
def test_steps_match_advective_oracle_steps(monkeypatch, dim, beta, r):
    p = _params(dim=dim, beta=beta, r=r, t_final=20 * 2e-3, snapshot_every=20)
    s = random_divergence_free_state(p, kmax_init=2, amplitude=2.0, seed=4)
    got = simulate(s, p).states[-1].coeffs
    kmax, n = p.dealias_kmax, p.resolution
    monkeypatch.setattr(cbf, "_nonlinear", lambda c, q: _kept(_advective_nonlinear(_full(c, n), q), kmax))
    want = simulate(s, p).states[-1].coeffs
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_step(coeffs, p):
    """One integrating-factor RK4 step on the full rfftn layout, with the
    advective oracle as the nonlinear term and a final Leray projection."""
    dim, n, dt = coeffs.shape[0], coeffs.shape[1], p.dt
    ks = _wavenumbers(dim, n)
    k2 = sum(k * k for k in ks)
    e1 = np.exp(-p.mu * k2 * (dt / 2.0))
    e2 = e1 * e1
    a = _advective_nonlinear(coeffs, p)
    b = _advective_nonlinear(e1 * (coeffs + (dt / 2.0) * a), p)
    c3 = _advective_nonlinear(e1 * coeffs + (dt / 2.0) * b, p)
    d = _advective_nonlinear(e2 * coeffs + dt * (e1 * c3), p)
    new = e2 * coeffs + (dt / 6.0) * (e2 * a + 2.0 * e1 * (b + c3) + d)
    k2[(0,) * dim] = 1.0
    dot = sum(ks[i] * new[i] for i in range(dim)) / k2
    return np.array([new[i] - ks[i] * dot for i in range(dim)])


@pytest.mark.parametrize("dim, beta, r", [(2, 0.0, 2.0), (3, 1.0, 2.0), (3, 1.0, 3.0)])
def test_step_matches_full_layout_reference_steps(dim, beta, r):
    p = _params(dim=dim, beta=beta, r=r)
    s = random_divergence_free_state(p, kmax_init=p.dealias_kmax, amplitude=2.0, seed=9)
    want = s.coeffs
    for _ in range(20):
        s = step(s, p)
        want = _reference_step(want, p)
    assert s.coeffs.shape == want.shape
    assert np.max(np.abs(s.coeffs - want)) <= 1e-12 * np.max(np.abs(want))


def test_state_outside_the_dealias_mask_is_rejected():
    # the step computes on the kept block only: a coefficient outside it
    # would be dropped, so step, simulate and cbf_rhs name it instead
    p = _params()  # N = 16, kmax = 5
    s = taylor_green(p)
    for k, pos in (((-6, 1), (10, 1)), ((0, 6), (0, 6)), ((8, 0), (8, 0))):
        bad = s.copy()
        bad.coeffs[(1,) + pos] = 1e-300
        msg = re.escape(f"mode {k} lies outside the dealias mask (kmax=5)")
        for call in (step, simulate, cbf_rhs):
            with pytest.raises(AliasingError, match=msg):
                call(bad, p)
    two = s.copy()
    two.coeffs[0, 10, 1] = two.coeffs[0, 0, 6] = 1.0
    with pytest.raises(AliasingError, match=re.escape("mode (0, 6)")):
        step(two, p)


def test_3d_steps_keep_support_and_structure():
    p = _params(beta=1.0, dim=3)
    s = random_divergence_free_state(p, kmax_init=p.dealias_kmax, amplitude=2.0, seed=2)
    outside = np.zeros(s.coeffs.shape[1:], dtype=bool)
    for k in _wavenumbers(3, p.resolution):
        outside = outside | (np.abs(k) > p.dealias_kmax)
    energy = state_energy(s, p)
    for _ in range(5):
        s = step(s, p)
        assert state_divergence_residual(s) < 1e-13
        assert not np.any(s.coeffs[:, outside])
        assert np.all(s.coeffs[:, 0, 0, 0] == 0.0)
        e = state_energy(s, p)
        assert e <= energy
        energy = e


def test_blow_up_guard():
    p = CBFParams(mu=1e-6, dim=2, resolution=16, dt=5.0, t_final=5.0, snapshot_every=1)
    s = random_divergence_free_state(p, kmax_init=3, amplitude=50.0, seed=0)
    with pytest.raises(AccuracyError, match="blow-up"):
        step(s, p)


def test_simulate_guards():
    p = _params(dt=0.3, t_final=1.0)
    s = CBFState(0.0, np.zeros((2, 16, 9), dtype=complex))
    with pytest.raises(ConfigError, match="integer multiple"):
        simulate(s, p)
    with pytest.raises(ConfigError, match="does not match"):
        simulate(CBFState(0.0, np.zeros((2, 8, 5), dtype=complex)), _params())


def test_energy_ledger_without_absorption():
    p = _params()
    traj = simulate(taylor_green(p), p)
    led = energy_ledger(traj, 0.0, 0.1)
    assert led.absorption == 0.0  # beta = 0: the term is absent, not just small
    assert led.kinetic0 == pytest.approx(TWO_PI2, rel=1e-14)
    assert led.kinetic1 < led.kinetic0
    assert led.dissipation > 0.0
    assert abs(led.residual) < 1e-8 * led.kinetic0


def test_energy_ledger_with_absorption():
    p = CBFParams(mu=0.05, beta=1.0, r=2.0, dim=2, resolution=16, dt=1e-3, t_final=0.1, snapshot_every=10)
    s = random_divergence_free_state(p, kmax_init=2, amplitude=1.0, seed=3)
    traj = simulate(s, p)
    led = energy_ledger(traj, 0.0, 0.1)
    assert led.absorption > 0.0
    assert abs(led.residual) < 1e-9 * led.kinetic0
    row = led.csv_row()
    assert len(row) == len(led.CSV_HEADER) == 7
    assert row[-1] == led.residual


@pytest.mark.parametrize("dim", [2, 3])
def test_ledger_quadratures_r2_on_the_solver_grid(dim):
    # |u|^4 has degree 4 kmax < N per axis, so the N-point rule is exact
    p = _params(dim=dim, beta=1.0, r=2.0)
    assert cbf._absorption_pad(p) == 1
    s = random_divergence_free_state(p, kmax_init=p.dealias_kmax, amplitude=2.0, seed=5)
    for state in (s, step(s, p)):
        on_grid = lp_norm(cbf._padded_velocity_grid(state, 1, p.dealias_kmax), 4.0) ** 4
        doubled = lp_norm(cbf._padded_velocity_grid(state, 2, p.dealias_kmax), 4.0) ** 4
        assert abs(on_grid - doubled) <= 1e-13 * doubled


def test_ledger_grid_choice():
    # an even q = r + 2 takes the smallest multiple M of N with q kmax < M
    assert cbf._absorption_pad(_params(beta=1.0, r=4.0)) == 2  # 6 * 3 = 18 >= 16
    assert cbf._absorption_pad(_params(beta=1.0, r=10.0)) == 3  # 12 * 3 = 36 >= 32
    assert cbf._absorption_pad(_params(beta=1.0, r=0.0)) == 1
    # any other q keeps the doubled grid, and the ledger its old value bit for bit
    p = CBFParams(mu=0.05, beta=1.0, r=3.0, dim=2, resolution=16, dt=1e-3, t_final=0.02, snapshot_every=5)
    assert cbf._absorption_pad(p) == 2
    traj = simulate(random_divergence_free_state(p, kmax_init=3, seed=3), p)
    vals = [lp_norm(cbf._padded_velocity_grid(s, 2, p.dealias_kmax), 5.0) ** 5.0 for s in traj.states]
    assert energy_ledger(traj, 0.0, 0.02).absorption == 2.0 * p.beta * float(simpson(vals, x=traj.times))


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_ledger_refuses_a_snapshot_outside_the_dealias_mask(beta):
    # the ledger's quadrature reads the kept block only: a coefficient
    # outside it would be dropped, so the ledger names it as step does
    p = CBFParams(mu=0.05, beta=beta, r=2.0, dim=2, resolution=16, dt=1e-3, t_final=0.02, snapshot_every=5)
    traj = simulate(random_divergence_free_state(p, kmax_init=2, seed=3), p)
    energy_ledger(traj, 0.0, 0.02)
    traj.states[1].coeffs[1, 0, 6] = 1e-300
    msg = re.escape(f"mode (0, 6) lies outside the dealias mask (kmax={p.dealias_kmax})")
    with pytest.raises(AliasingError, match=msg):
        energy_ledger(traj, 0.0, 0.02)
    energy_ledger(traj, 0.01, 0.02)  # a window without that snapshot is not checked for it


def test_ledgers_compute_each_snapshot_once(monkeypatch):
    # two windows over 7 snapshots share the middle one: 7 quadratures, not 8
    p = CBFParams(mu=0.05, beta=1.0, r=2.0, dim=2, resolution=16, dt=1e-3, t_final=0.03, snapshot_every=5)
    traj = simulate(random_divergence_free_state(p, kmax_init=2, seed=3), p)
    assert len(traj.states) == 7
    edges = (0.0, 0.015, 0.03)
    per_window = [energy_ledger(traj, a, b) for a, b in zip(edges, edges[1:])]
    calls = []
    grid = cbf._padded_velocity_grid
    monkeypatch.setattr(cbf, "_padded_velocity_grid", lambda *a: calls.append(a) or grid(*a))
    ledgers = energy_ledgers(traj, edges)
    assert len(calls) == 7
    assert [led.csv_row() for led in ledgers] == [led.csv_row() for led in per_window]
    with pytest.raises(ConfigError, match="two window edges"):
        energy_ledgers(traj, (0.0,))
    with pytest.raises(ConfigError, match="t0 < t1"):
        energy_ledgers(traj, (0.0, 0.015, 0.015))


def test_energy_ledger_guards():
    p = _params()
    traj = simulate(taylor_green(p), p)
    with pytest.raises(ConfigError, match="t0 < t1"):
        energy_ledger(traj, 0.1, 0.0)
    with pytest.raises(ConfigError, match="snapshot times"):
        energy_ledger(traj, 0.013, 0.1)
    short = Trajectory(p, traj.times[:2], traj.states[:2])
    with pytest.raises(ConfigError, match="3 snapshots"):
        energy_ledger(short, traj.times[0], traj.times[1])


def _constant_trajectory(p, base, t_end=0.2, spacing=0.01):
    times = [round(i * spacing, 10) for i in range(int(round(t_end / spacing)) + 1)]
    return Trajectory(p, times, [CBFState(t, base.coeffs.copy()) for t in times])


def test_mollifier_density_normalized():
    spec = MollifierSpec(0.05)
    s = np.linspace(-0.06, 0.06, 200001)
    assert np.trapezoid(spec.density(s), s) == pytest.approx(1.0, abs=1e-12)
    assert np.all(spec.density(np.array([-0.05, 0.05, 0.2])) == 0.0)
    assert spec.density(0.01) == spec.density(-0.01)
    with pytest.raises(ConfigError):
        MollifierSpec(0.0)


def test_time_mollify_reproduces_constants():
    p = _params(dt=1e-2, snapshot_every=1, t_final=0.2)
    base = taylor_green(p)
    traj = _constant_trajectory(p, base)
    f0 = to_spectral_field(base)
    got = time_mollify(traj, MollifierSpec(0.05), 0.1)
    assert subtract(got, f0).l2() < 1e-10
    # at the window edge only half the bump mass is inside the data range
    edge = time_mollify(traj, MollifierSpec(0.05), 0.0)
    assert subtract(edge, scale(f0, 0.5)).l2() < 1e-10


def test_time_mollify_reproduces_linear_growth():
    # an even kernel has zero first moment, so linear-in-time data pass through
    p = _params(dt=1e-2, snapshot_every=1, t_final=0.2)
    base = taylor_green(p)
    times = [round(i * 0.01, 10) for i in range(21)]
    traj = Trajectory(p, times, [CBFState(t, (1.0 + t) * base.coeffs) for t in times])
    got = time_mollify(traj, MollifierSpec(0.05), 0.1)
    assert subtract(got, scale(to_spectral_field(base), 1.1)).l2() < 1e-10


def test_time_mollify_guards():
    p = _params(dt=1e-2, snapshot_every=1, t_final=0.2)
    traj = _constant_trajectory(p, taylor_green(p))
    with pytest.raises(ConfigError, match="under-resolves"):
        time_mollify(traj, MollifierSpec(0.005), 0.1)
    with pytest.raises(ConfigError, match="outside"):
        time_mollify(traj, MollifierSpec(0.05), 0.5)


def test_space_mollify_damps_and_converges_to_identity():
    p = _params()
    s = taylor_green(p)  # all modes on the |k|^2 = 2 shell
    damped = space_mollify(s, 4.0, p)
    assert state_energy(damped, p) / state_energy(s, p) == pytest.approx(math.exp(-1.0), rel=1e-13)
    near_id = space_mollify(s, 1e12, p)
    assert np.max(np.abs(near_id.coeffs - s.coeffs)) < 1e-10 * np.max(np.abs(s.coeffs))
    assert state_divergence_residual(damped) < 1e-14
    with pytest.raises(ConfigError):
        space_mollify(s, 0.0, p)


@pytest.mark.parametrize("dim", [2, 3])
def test_state_field_round_trip(dim):
    p = _params(beta=1.0, dim=dim)
    s = random_divergence_free_state(p, kmax_init=3, amplitude=2.0, seed=7)
    f = to_spectral_field(s)
    assert f.l2() == pytest.approx(math.sqrt(state_energy(s, p)), rel=1e-12)
    back = from_spectral_field(f, p, time=s.time)
    assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-12 * np.max(np.abs(s.coeffs))


def test_divergence_residual_adds_no_table_entry():
    # the residual needs only the wavenumbers, which the solver's tables share
    p = _params(dim=3, resolution=16)
    s = step(random_divergence_free_state(p, kmax_init=2, seed=3), p)
    cbf._tables.cache_clear()
    s = step(s, p)
    before = cbf._tables.cache_info().currsize
    assert state_divergence_residual(s) < 1e-13
    assert cbf._tables.cache_info().currsize == before


def test_random_state_is_seeded_and_normalized():
    p = _params()
    a = random_divergence_free_state(p, kmax_init=2, amplitude=3.0, seed=5)
    b = random_divergence_free_state(p, kmax_init=2, amplitude=3.0, seed=5)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert state_energy(a, p) == pytest.approx(9.0, rel=1e-12)
    assert state_divergence_residual(a) < 1e-13
    with pytest.raises(ConfigError):
        random_divergence_free_state(p, kmax_init=0)
    with pytest.raises(ConfigError):
        random_divergence_free_state(p, kmax_init=99)


def test_from_spectral_field_gates():
    p = _params()
    op = TorusStokes(Torus(2))
    k_out = p.dealias_kmax + 1
    outside = SpectralField(op, {(k_out, 0): np.array([0.0, 1.0]), (-k_out, 0): np.array([0.0, 1.0])})
    with pytest.raises(AliasingError):
        from_spectral_field(outside, p)
    with_mean = SpectralField(op, {(0, 0): np.array([1.0, 0.0])})
    with pytest.raises(ConfigError, match="zero-mean"):
        from_spectral_field(with_mean, p)
    asym = SpectralField(op, {(1, 0): np.array([0.0, 1.0 + 1.0j])})
    with pytest.raises(ConfigError, match="conjugate"):
        from_spectral_field(asym, p)
    scalar = SpectralField(TorusLaplacian(Torus(2)), {(1, 0): 1.0 + 0j})
    with pytest.raises(ConfigError):
        from_spectral_field(scalar, p)


def test_checkpoint_round_trip_npz(tmp_path):
    p = _params(t_final=0.02)
    traj = simulate(taylor_green(p), p)
    d = tmp_path / "ck"
    save_trajectory(traj, str(d), fmt="npz")
    back = load_trajectory(str(d))
    assert back.params == p
    assert back.times == traj.times
    for a, b in zip(traj.states, back.states):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_checkpoint_round_trip_csv(tmp_path):
    p = _params(t_final=0.02)
    traj = simulate(taylor_green(p), p)
    d = tmp_path / "ck"
    save_trajectory(traj, str(d), fmt="csv")
    back = load_trajectory(str(d))
    for a, b in zip(traj.states, back.states):
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12
    with pytest.raises(ConfigError):
        save_trajectory(traj, str(tmp_path / "x"), fmt="hdf5")


_THREAD_RUN = """
import hashlib
from eigenapprox import CBFParams, energy_ledger, random_divergence_free_state, simulate
p = CBFParams(mu=1.0, beta=1.0, r=2.0, dim=3, resolution=32, dt=1e-3, t_final=6e-3, snapshot_every=2)
traj = simulate(random_divergence_free_state(p, kmax_init=3, seed=7), p)
digest = hashlib.sha256(b"".join(s.coeffs.tobytes() for s in traj.states)).hexdigest()
print(digest, repr(energy_ledger(traj, traj.times[0], traj.times[-1]).csv_row()))
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # the transforms are BLAS products: a threaded BLAS must give the same
    # bytes as one thread, or two runs on different machines would differ
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env, capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].split()) > 1
