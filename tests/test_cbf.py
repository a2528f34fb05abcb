import json
import math
import os
import re
import subprocess
import sys
import zipfile

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from eigenapprox import (
    AccuracyError,
    AliasingError,
    CBFParams,
    CBFState,
    ConfigError,
    SpectralField,
    Torus,
    TorusLaplacian,
    TorusStokes,
    Trajectory,
    add,
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
    state_divergence_residual,
    state_energy,
    state_enstrophy,
    step,
    subtract,
    taylor_green,
    to_spectral_field,
)
from eigenapprox import cbf
from eigenapprox.domains import polarization_basis

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
    # non-finite values, an int beyond the doubles included, are refused by name
    for key, value in (("mu", math.inf), ("beta", math.nan), ("r", math.inf), ("dt", math.nan), ("t_final", 10**400)):
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            _params(**{key: value})
    for make in (taylor_green, random_divergence_free_state):
        with pytest.raises(ConfigError, match="^amplitude must be finite"):
            make(_params(), amplitude=math.nan)


_BAD_KINDS = {
    "dim-float": ("dim", 2.0, "parameter 'dim' must be an int, got 2.0$"),
    "resolution-float": ("resolution", 16.0, "parameter 'resolution' must be an int, got 16.0$"),
    "snapshot-every-fraction": ("snapshot_every", 2.5, "parameter 'snapshot_every' must be an int, got 2.5$"),
    "viscosity-bool": ("mu", True, "parameter 'mu' must be a number, got True$"),
    "viscosity-text": ("mu", "1", "parameter 'mu' must be a number, got '1'$"),
    "resolution-huge": ("resolution", 10**400, "resolution must be finite, got "),
}


@pytest.mark.parametrize("key, value, message", _BAD_KINDS.values(), ids=list(_BAD_KINDS))
def test_params_refuse_a_value_of_another_kind_by_name(key, value, message):
    # these once passed the constructor and failed later, if at all, with a
    # TypeError (a float dim or resolution, a text mu) or ran (True, 2.5)
    with pytest.raises(ConfigError, match=f"^{message}"):
        _params(**{key: value})


def test_numpy_integer_params_round_trip_through_a_checkpoint(tmp_path):
    # a numpy integer once reached json.dump and left a manifest cut off
    # after "resolution":
    p = _params(mu=np.int64(1), dim=np.int32(2), resolution=np.int64(16), t_final=0.02, snapshot_every=np.int64(5))
    assert [type(v) for v in (p.mu, p.dim, p.resolution, p.snapshot_every)] == [int] * 4
    traj = simulate(taylor_green(p), p)
    d = tmp_path / "ck"
    save_trajectory(traj, str(d))
    back = load_trajectory(str(d))
    assert back.params == p and back.times == traj.times
    assert all(np.array_equal(a.block, b.block) for a, b in zip(back.states, traj.states))


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


def _full_layout_parseval(s: CBFState) -> tuple:
    """Energy and enstrophy by the weights of the N-point rfftn layout, its
    Nyquist slot included, summed over `coeffs`: the formula the block sums
    must reproduce bit for bit."""
    n, d = s.resolution, s.dim
    karrs = []
    for ax in range(d):
        k = np.arange(n // 2 + 1 if ax == d - 1 else n, dtype=float)
        if ax < d - 1:
            k[(n + 1) // 2 :] -= n
        karrs.append(k.reshape([1] * ax + [k.size] + [1] * (d - ax - 1)))
    shape = (n,) * (d - 1) + (n // 2 + 1,)
    k2 = np.zeros(shape)
    for k in karrs:
        k2 = k2 + k * k
    pw = np.broadcast_to(np.where((karrs[-1] > 0) & (2 * karrs[-1] != n), 2.0, 1.0), shape).copy()
    amp = np.abs(s.coeffs) ** 2
    scale_ = cbf._scale_factor(d, n)
    return scale_ * float(np.sum(pw * amp)), scale_ * float(np.sum(pw * k2 * amp))


@pytest.mark.parametrize(
    "dim, n", [(2, 8), (2, 16), (2, 32), (2, 64), (2, 128), (3, 8), (3, 16), (3, 32)], ids=lambda v: str(v)
)
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_parseval_sums_on_the_block_are_the_full_layout_ones(dim, n, beta):
    p = CBFParams(mu=0.05, beta=beta, dim=dim, resolution=n, dt=1e-3)
    for seed in range(4):
        for kmax_init in sorted({1, p.dealias_kmax}):
            s = random_divergence_free_state(p, kmax_init=kmax_init, amplitude=0.1 + seed, seed=seed)
            energy, enstrophy = _full_layout_parseval(s)
            assert np.float64(state_energy(s, p)).tobytes() == np.float64(energy).tobytes(), (seed, kmax_init)
            assert np.float64(state_enstrophy(s, p)).tobytes() == np.float64(enstrophy).tobytes(), (seed, kmax_init)


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
    z = CBFState(0.0, np.zeros((2, 11, 6), dtype=complex), 16)
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


def _work(p):
    # the nonlinear term's grid work array, filled with what a previous use
    # could leave there
    return np.full((2, p.dim) + (p.resolution,) * p.dim, np.nan)


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
    got = cbf._block_to_grid(block, np.empty((m,) + (n,) * dim))
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
    back = cbf._grid_to_block(cbf._block_to_grid(block, np.empty((m,) + (n,) * dim)), kmax)
    assert np.max(np.abs(back - block)) <= 1e-14 * np.max(np.abs(block))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("r", [2.0, 3.0])
def test_divergence_form_matches_advective_oracle(dim, beta, r):
    # r = 3 takes the non-integer power |u|^(3/2) path
    p = _params(dim=dim, beta=beta, r=r)
    s = random_divergence_free_state(p, kmax_init=p.dealias_kmax, amplitude=3.0, seed=11)
    want = _advective_nonlinear(s.coeffs, p)
    got = _full(cbf._nonlinear(s.block, p, _work(p)), p.resolution)
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, beta, r", [(2, 0.0, 2.0), (3, 1.0, 3.0)])
def test_steps_match_advective_oracle_steps(monkeypatch, dim, beta, r):
    p = _params(dim=dim, beta=beta, r=r, t_final=20 * 2e-3, snapshot_every=20)
    s = random_divergence_free_state(p, kmax_init=2, amplitude=2.0, seed=4)
    got = simulate(s, p).states[-1].coeffs
    kmax, n = p.dealias_kmax, p.resolution
    monkeypatch.setattr(cbf, "_nonlinear", lambda c, q, work: _kept(_advective_nonlinear(_full(c, n), q), kmax))
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


def _with_mode(s, k, amplitude):
    """The field of state s plus a real velocity of the given amplitude at
    the pair +-k, along the first polarization of k."""
    e = amplitude * polarization_basis(k)[0]
    return add(to_spectral_field(s), SpectralField(TorusStokes(Torus(len(k))), {k: e, tuple(-x for x in k): e}))


def test_state_outside_the_dealias_mask_is_rejected():
    # a state holds the kept block only, so a mode outside it has nowhere to
    # go: the conversion into a state names it instead of dropping it
    p = _params()  # N = 16, kmax = 5
    s = taylor_green(p)
    for k in ((-6, 1), (0, 6), (8, 0)):
        msg = re.escape(f"mode {k} lies outside the dealias mask (kmax=5)")
        with pytest.raises(AliasingError, match=msg):
            from_spectral_field(_with_mode(s, k, 1e-300), p)
    two = add(_with_mode(s, (-6, 1), 1.0), _with_mode(s, (0, 6), 1.0))
    first = next(k for k in two.k.tolist() if max(map(abs, k)) > 5)
    with pytest.raises(AliasingError, match=re.escape(f"mode {tuple(first)} lies outside")):
        from_spectral_field(two, p)


def test_solver_paths_never_build_the_full_layout(monkeypatch, tmp_path):
    # the state is the kept block: only the read-only `coeffs` view and the
    # Parseval sums scatter it into the N-point layout
    p2, p3 = _params(), _params(dim=3, beta=1.0, t_final=3 * 2e-3, snapshot_every=1)
    s3 = random_divergence_free_state(p3, kmax_init=2, seed=1)

    def refuse(*args):
        raise AssertionError("the full rfftn layout was built")

    monkeypatch.setattr(cbf, "_low_modes", refuse)
    s2 = taylor_green(p2)
    for s, p in ((s2, p2), (s3, p3)):
        step(s, p)
        cbf_rhs(s, p)
        cbf._padded_velocity_grid(s, 2)
        back = from_spectral_field(to_spectral_field(s), p)
        assert back.block.shape == s.block.shape
    traj = simulate(s3, p3)
    save_trajectory(traj, str(tmp_path / "ck"))
    loaded = load_trajectory(str(tmp_path / "ck"))
    assert all(np.array_equal(a.block, b.block) for a, b in zip(traj.states, loaded.states))


@pytest.mark.parametrize("dim", [2, 3])
def test_coeffs_is_a_read_only_view_of_the_block(dim):
    p = _params(dim=dim, beta=1.0)
    s = random_divergence_free_state(p, kmax_init=2, seed=6)
    c = s.coeffs
    assert np.array_equal(c, _full(s.block, p.resolution))
    with pytest.raises(ValueError, match="read-only"):
        c[(0,) * c.ndim] = 1.0
    with pytest.raises(AttributeError):
        s.coeffs = np.zeros_like(c)
    s.block *= 2.0  # the view is made from the block each time it is read
    assert np.array_equal(s.coeffs, 2.0 * c)


def test_a_state_that_does_not_fit_the_params_is_refused(tmp_path):
    p = _params(t_final=0.02, snapshot_every=5)  # N = 16, block (2, 11, 6)
    good = taylor_green(p)
    misfits = [
        (CBFState(0.0, np.zeros((2, 16, 9), dtype=complex), 16), r"N=16, block \(2, 16, 9\)"),  # the full layout
        (CBFState(0.0, np.zeros((2, 7, 4), dtype=complex), 16), r"N=16, block \(2, 7, 4\)"),  # the 1/2 rule's block
        (CBFState(0.0, good.block, 20), r"N=20, block \(2, 11, 6\)"),
    ]
    for bad, shown in misfits:
        msg = rf"^state \({shown}\) does not match params \(N=16, block \(2, 11, 6\)\)$"
        for call in (step, simulate, cbf_rhs):
            with pytest.raises(ConfigError, match=msg):
                call(bad, p)
        traj = Trajectory(p, [0.0, 0.01, 0.02], [good, bad, good])
        with pytest.raises(ConfigError, match=msg):
            energy_ledgers(traj, (0.0, 0.02))
        with pytest.raises(ConfigError, match=msg):
            save_trajectory(traj, str(tmp_path / "ck"))
        assert not (tmp_path / "ck").exists()


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
    s = CBFState(0.0, np.zeros((2, 11, 6), dtype=complex), 16)
    with pytest.raises(ConfigError, match="integer multiple"):
        simulate(s, p)
    with pytest.raises(ConfigError, match="does not match"):
        simulate(CBFState(0.0, np.zeros((2, 5, 3), dtype=complex), 8), _params())


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
        on_grid = lp_norm(cbf._padded_velocity_grid(state, 1), 4.0) ** 4
        doubled = lp_norm(cbf._padded_velocity_grid(state, 2), 4.0) ** 4
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
    vals = [lp_norm(cbf._padded_velocity_grid(s, 2), 5.0) ** 5.0 for s in traj.states]
    assert energy_ledger(traj, 0.0, 0.02).absorption == 2.0 * p.beta * float(simpson(vals, x=traj.times))


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_ledger_refuses_a_snapshot_outside_the_dealias_mask(beta):
    # the ledger's quadrature reads the kept block only, and a snapshot can
    # hold nothing else: a mode outside it is named when the state is made
    p = CBFParams(mu=0.05, beta=beta, r=2.0, dim=2, resolution=16, dt=1e-3, t_final=0.02, snapshot_every=5)
    traj = simulate(random_divergence_free_state(p, kmax_init=2, seed=3), p)
    before = energy_ledger(traj, 0.0, 0.02).csv_row()
    msg = re.escape(f"mode (0, 6) lies outside the dealias mask (kmax={p.dealias_kmax})")
    with pytest.raises(AliasingError, match=msg):
        from_spectral_field(_with_mode(traj.states[1], (0, 6), 1e-300), p, time=traj.times[1])
    assert energy_ledger(traj, 0.0, 0.02).csv_row() == before


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
    save_trajectory(traj, str(d))
    back = load_trajectory(str(d))
    assert back.params == p
    assert back.times == traj.times
    for a, b in zip(traj.states, back.states):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_load_trajectory_refuses_a_format_other_than_npz(tmp_path):
    p = _params(t_final=0.02)
    d = tmp_path / "ck"
    save_trajectory(simulate(taylor_green(p), p), str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["format"] == "npz-block"
    for old in ("csv", "npz"):  # "npz" is the full-layout format of earlier versions
        manifest["format"] = old
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=f"unknown checkpoint format '{old}'; only 'npz-block' is read"):
            load_trajectory(str(d))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda manifest: manifest.pop("format"), "manifest.json has no 'format'"),
        (lambda manifest: manifest.pop("params"), "manifest.json has no 'params'"),
        (lambda manifest: manifest["params"].update(nu=1.0), r"unknown parameters \['nu'\]"),
        (lambda manifest: manifest["params"].pop("mu"), "parameter 'mu' is missing"),
        (lambda manifest: manifest["times"].append(1.0), "trajectory.npz holds 3 snapshots, but manifest.json lists 4 times"),
        (
            lambda manifest: manifest["params"].update(resolution=20),
            r"trajectory.npz holds complex128 blocks of shape \(2, 11, 6\), "
            r"but the params \(d=2, N=20, beta=0.0\) give complex128 \(2, 13, 7\)",
        ),
        (
            lambda manifest: manifest["params"].update(beta=1.0),
            r"trajectory.npz holds complex128 blocks of shape \(2, 11, 6\), "
            r"but the params \(d=2, N=16, beta=1.0\) give complex128 \(2, 7, 4\)",
        ),
    ],
    ids=[
        "no-format",
        "no-params",
        "unknown-parameter",
        "no-viscosity",
        "time-without-snapshot",
        "resolution-edited",
        "beta-edited",
    ],
)
def test_load_trajectory_names_what_a_malformed_checkpoint_lacks(corrupt, message, tmp_path):
    # these used to end in a bare KeyError or TypeError
    p = _params(t_final=0.02, snapshot_every=5)
    d = tmp_path / "ck"
    save_trajectory(simulate(taylor_green(p), p), str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    assert len(manifest["times"]) == 3
    corrupt(manifest)
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=f"^checkpoint {re.escape(str(d))}: {message}$"):
        load_trajectory(str(d))


def test_load_trajectory_names_an_archive_without_blocks(tmp_path):
    p = _params(t_final=0.02)
    d = tmp_path / "ck"
    save_trajectory(simulate(taylor_green(p), p), str(d))
    np.savez(d / "trajectory.npz", snapshot_000000=taylor_green(p).coeffs)  # the old layout's array name
    with pytest.raises(ConfigError, match=f"^checkpoint {re.escape(str(d))}: trajectory.npz has no 'blocks'$"):
        load_trajectory(str(d))


def _edit_manifest(edit):
    def corrupt(d):
        manifest = json.loads((d / "manifest.json").read_text())
        edit(manifest)
        (d / "manifest.json").write_text(json.dumps(manifest))

    return corrupt


def _write_npy(d):
    with open(d / "trajectory.npz", "wb") as fh:
        np.save(fh, np.zeros(3))


# checkpoints that used to end in a JSONDecodeError, a TypeError or
# ValueError from the parameter checks or float(), numpy's pickle
# ValueError, or (reversed or repeated times) load and reach the ledger
BAD_CHECKPOINTS = {
    "manifest-not-json": (lambda d: (d / "manifest.json").write_text("{format: npz-block"), "manifest.json is not JSON: "),
    "manifest-not-text": (lambda d: (d / "manifest.json").write_bytes(b'{"format": "\xff"}'), "manifest.json is not JSON: "),
    "manifest-a-list": (lambda d: (d / "manifest.json").write_text("[]"), "manifest.json is not a JSON object$"),
    "params-a-list": (_edit_manifest(lambda m: m.update(params=[1.0])), "params is not a JSON object$"),
    "viscosity-text": (_edit_manifest(lambda m: m["params"].update(mu="x")), "parameter 'mu' must be a number, got 'x'$"),
    "viscosity-bool": (_edit_manifest(lambda m: m["params"].update(mu=True)), "parameter 'mu' must be a number, got True$"),
    "dimension-bool": (_edit_manifest(lambda m: m["params"].update(dim=True)), "parameter 'dim' must be an int, got True$"),
    "resolution-float": (
        _edit_manifest(lambda m: m["params"].update(resolution=16.0)), "parameter 'resolution' must be an int, got 16.0$"
    ),
    "viscosity-negative": (_edit_manifest(lambda m: m["params"].update(mu=-1.0)), "viscosity must be positive, got -1.0$"),
    "times-text": (_edit_manifest(lambda m: m.update(times=["a", "b", "c"])), "times must be a list of finite numbers"),
    "times-bool": (_edit_manifest(lambda m: m["times"].__setitem__(0, False)), "times must be a list of finite numbers"),
    "times-nan": (_edit_manifest(lambda m: m["times"].__setitem__(1, math.nan)), "times must be a list of finite numbers"),
    "times-huge": (_edit_manifest(lambda m: m["times"].__setitem__(2, 10**400)), "times must be a list of finite numbers"),
    "times-not-a-list": (_edit_manifest(lambda m: m.update(times=0.0)), "times must be a list of finite numbers"),
    "times-reversed": (_edit_manifest(lambda m: m["times"].reverse()), r"times must increase strictly, got \[0\.02"),
    "times-repeated": (_edit_manifest(lambda m: m["times"].__setitem__(2, m["times"][1])), "times must increase strictly"),
    "archive-text": (lambda d: (d / "trajectory.npz").write_text("not an archive"), "trajectory.npz is not an npz archive: "),
    "archive-empty": (lambda d: (d / "trajectory.npz").write_bytes(b""), "trajectory.npz is not an npz archive: "),
    "archive-truncated": (
        lambda d: (d / "trajectory.npz").write_bytes((d / "trajectory.npz").read_bytes()[:200]),
        "trajectory.npz is not an npz archive: ",
    ),
    "archive-an-npy": (_write_npy, "trajectory.npz is not an npz archive$"),
}


@pytest.mark.parametrize("corrupt, message", BAD_CHECKPOINTS.values(), ids=list(BAD_CHECKPOINTS))
def test_load_trajectory_refuses_a_malformed_checkpoint_by_name(corrupt, message, tmp_path):
    p = _params(t_final=0.02, snapshot_every=5)
    d = tmp_path / "ck"
    save_trajectory(simulate(taylor_green(p), p), str(d))
    corrupt(d)
    with pytest.raises(ConfigError, match=f"^checkpoint {re.escape(str(d))}: {message}"):
        load_trajectory(str(d))


@pytest.mark.parametrize("beta, kmax", [(0.0, 5), (1.0, 3)])
def test_save_trajectory_refuses_a_snapshot_outside_the_dealias_mask(beta, kmax, tmp_path):
    # the checkpoint stores the kept block only, so an outside mode would be
    # lost: the conversion into a state names it before it can reach one
    p = _params(beta=beta, t_final=0.02)
    assert p.dealias_kmax == kmax
    traj = simulate(taylor_green(p), p)
    last = traj.states[-1]
    with pytest.raises(AliasingError, match=rf"^mode \({kmax + 1}, 0\) lies outside the dealias mask \(kmax={kmax}\)$"):
        from_spectral_field(_with_mode(last, (kmax + 1, 0), 1e-300), p, time=last.time)
    d = tmp_path / "ck"
    save_trajectory(traj, str(d))
    assert np.array_equal(load_trajectory(str(d)).states[-1].block, last.block)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(4, 20).map(lambda h: 2 * h),
    beta=st.sampled_from([0.0, 1.0]),
    snapshots=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=2, n=10, beta=0.0, snapshots=2, seed=0)
@example(dim=3, n=10, beta=1.0, snapshots=1, seed=1)
def test_checkpoint_stores_the_kept_block_and_round_trips_exactly(dim, n, beta, snapshots, seed, tmp_path_factory):
    p = _params(dim=dim, resolution=n, beta=beta)
    kmax = p.dealias_kmax
    shape = (dim,) + (2 * kmax + 1,) * (dim - 1) + (kmax + 1,)
    rng = np.random.default_rng(seed)
    states = [CBFState(0.1 * i, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), n) for i in range(snapshots)]
    d = tmp_path_factory.mktemp("ck")
    save_trajectory(Trajectory(p, [s.time for s in states], states), str(d))
    with zipfile.ZipFile(d / "trajectory.npz") as archive:
        assert [(i.filename, i.compress_type) for i in archive.infolist()] == [("blocks.npy", zipfile.ZIP_STORED)]
    with np.load(d / "trajectory.npz") as data:
        assert data["blocks"].shape == (snapshots,) + shape and data["blocks"].dtype == np.complex128
    back = load_trajectory(str(d))
    assert back.params == p and back.times == [s.time for s in states]
    for a, b in zip(states, back.states):
        assert b.block.dtype == a.block.dtype and np.array_equal(b.block, a.block)
        assert b.resolution == n and np.array_equal(b.coeffs, a.coeffs)


def test_negative_seed_is_a_config_error():
    # it used to reach numpy, which raised its own ValueError
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        random_divergence_free_state(_params(), seed=-1)


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
