import csv
from dataclasses import replace

import numpy as np
import pytest

from kgchain import (
    SimConfig,
    apply_linear,
    compare_models,
    drift_experiment,
    extract_gdnls,
    integrate_gdnls,
    integrate_kg,
    linear_normalize,
    normal_form,
    observables,
)
from kgchain.cli import write_trajectory_csv
from kgchain.cyclic import FieldEvaluator, RealizedEvaluator
from kgchain.dynamics import (
    MIDPOINT_MAX_ITER,
    IntegratorError,
    _integrate_strang,
    _ModeRotation,
    initial_state,
    kg_energy,
)


def short_cfg(**kw):
    base = dict(n=8, a=0.05, radius=0.05, dt=0.02, horizon=40.0, seed=3)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.7, a=0.0).validate()
    with pytest.raises(ValueError):
        SimConfig(dt=0.03, horizon=0.1).validate()
    with pytest.raises(ValueError):
        SimConfig(norm="l1").validate()
    with pytest.raises(ValueError):
        SimConfig(dt=0.0).validate()


def test_initial_state_norms():
    cfg = short_cfg(norm="l2", radius=0.1, initial="uniform-random-phase")
    z = initial_state(cfg, cfg.n)
    assert np.linalg.norm(z) == pytest.approx(0.1, rel=1e-12)
    cfg2 = short_cfg(norm="linf", radius=0.1)
    z2 = initial_state(cfg2, cfg2.n)
    assert np.max(np.hypot(z2[:8], z2[8:])) == pytest.approx(0.1, rel=1e-12)
    single = initial_state(short_cfg(initial="single-site"), 8)
    assert single[0] == 0.05 and np.count_nonzero(single) == 1


def test_decoupled_per_site_energy():
    cfg = short_cfg(a=0.0, initial="single-site", radius=0.02)
    traj = integrate_kg(cfg)
    x, y = traj.states[:, :8], traj.states[:, 8:]
    site0 = 0.5 * (y[:, 0] ** 2 + x[:, 0] ** 2) + 0.25 * x[:, 0] ** 4
    others = np.abs(x[:, 1:]).max()
    assert others == 0.0
    assert np.max(np.abs(site0 - site0[0])) <= 1e-9


def test_harmonic_mode_energies_conserved():
    cfg = short_cfg(quartic=False, radius=0.2)
    traj = integrate_kg(cfg)
    lam = 1.0 + 4.0 * cfg.a * np.sin(np.pi * np.arange(8) / 8) ** 2
    xh = np.fft.fft(traj.states[:, :8], axis=1)
    yh = np.fft.fft(traj.states[:, 8:], axis=1)
    mode_e = 0.5 * (np.abs(yh) ** 2 + lam * np.abs(xh) ** 2) / 8
    drift = np.max(np.abs(mode_e - mode_e[0]))
    assert drift <= 1e-10


def test_energy_drift_and_guard():
    traj = integrate_kg(short_cfg())
    assert np.max(traj.energy_error) <= 1e-6
    with pytest.raises(IntegratorError):
        integrate_kg(short_cfg(radius=3.0, dt=0.4, a=0.0,
                               initial="single-site"))


def test_ladder_guard_names_the_radius():
    # the largest radius blows up; the batched ladder raises for its row
    res = normal_form(linear_normalize(0.0, 8), 1)
    base = short_cfg(a=0.0, dt=0.4, initial="single-site")
    with pytest.raises(IntegratorError, match=r"at t=0.4 for radius 3$"):
        drift_experiment(base, [0.01, 3.0], res)
    # sampled only at the end, the blown-up row's energy is NaN
    with pytest.raises(IntegratorError,
                       match=r"drift nan .* at t=40 for radius 3$"):
        drift_experiment(replace(base, sample_every=10 ** 9), [0.01, 3.0],
                         res)
    # a row after the first trips the guard just as well
    with pytest.raises(IntegratorError, match=r"for radius 3$"):
        _integrate_strang([replace(base, radius=r) for r in (0.01, 3.0)])


@pytest.mark.parametrize("kw", [
    dict(norm="l2"),
    dict(norm="linf"),
    dict(initial="single-site"),
    dict(soft=True),
    dict(quartic=False),
    dict(dt=-0.02),
    dict(sample_every=7),
], ids=["l2", "linf", "single-site", "soft", "harmonic", "backward",
        "sample-7"])
def test_ladder_batch_bit_identical(kw):
    # the batched ladder pass gives every row exactly the trajectory and
    # the observables of a separate integrate_kg + observables run
    res = normal_form(linear_normalize(0.05, 8), 1)
    base = short_cfg(horizon=4.0, **kw)
    report = drift_experiment(base, [0.02, 0.08, 0.04], res)
    rows = report["ladder"]
    assert [r["radius"] for r in rows] == [0.08, 0.04, 0.02]
    for row, traj in zip(rows, report["trajectories"]):
        alone = integrate_kg(replace(base, radius=row["radius"]))
        obs = observables(alone, res)
        assert traj.config.radius == row["radius"]
        for name in ("times", "states", "energy", "energy_error"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name))
        assert traj.stats == alone.stats
        assert traj.observables.keys() == obs.keys()
        for name, series in obs.items():
            assert np.array_equal(traj.observables[name], series), name


def test_reversibility():
    cfg = short_cfg(sample_every=10 ** 9)     # record only endpoints
    traj = integrate_kg(cfg)
    end = traj.states[-1]
    back_cfg = short_cfg(initial="state", state=end, dt=cfg.dt,
                         sample_every=10 ** 9)
    back_cfg.dt = -cfg.dt
    back = integrate_kg(back_cfg)
    start = initial_state(cfg, cfg.n)
    assert np.max(np.abs(back.states[-1] - start)) <= 1e-8


def test_observables_consistency():
    cfg = short_cfg()
    lnf = linear_normalize(cfg.a, cfg.n)
    res = normal_form(lnf, 1)
    traj = integrate_kg(cfg)
    obs = observables(traj, res)
    # H_Omega + Z_0 equals the quadratic part of H pointwise
    x, y = traj.states[:, :8], traj.states[:, 8:]
    quad = np.array([kg_energy(xx, yy, cfg.a, quartic=False)
                     for xx, yy in zip(x, y)])
    assert np.max(np.abs(obs["H_Omega"] + obs["Z0"] - quad)) <= 1e-12
    # t=0 value matches a direct evaluation of the transformed seeds
    from kgchain.cyclic import RealizedEvaluator
    qp0 = apply_linear(lnf, traj.states[0])
    direct = RealizedEvaluator(res.zetas[0])(qp0)
    assert obs["Z1"][0] == pytest.approx(direct, rel=1e-12)
    assert obs["J1"][0] == pytest.approx(
        obs["H_Omega"][0] + obs["Z0"][0] + direct, rel=1e-12)


def test_harmonic_homega_constant():
    cfg = short_cfg(quartic=False)
    lnf = linear_normalize(cfg.a, cfg.n)
    res = normal_form(lnf, 1)
    obs = observables(integrate_kg(cfg), res)
    assert np.max(np.abs(obs["H_Omega"] - obs["H_Omega"][0])) <= 1e-10


def test_gdnls_flow_conserves_its_homega():
    lnf = linear_normalize(0.05, 8)
    model = extract_gdnls(normal_form(lnf, 1))
    cfg = short_cfg(horizon=20.0)
    traj = integrate_gdnls(model, cfg)
    hom = traj.observables["H_Omega"]
    assert np.max(np.abs(hom - hom[0])) <= 1e-10 * max(hom[0], 1e-30)
    assert np.max(traj.energy_error) <= 1e-6


def test_gdnls_stats_count_field_evaluations(monkeypatch):
    lnf = linear_normalize(0.05, 6)
    model = extract_gdnls(normal_form(lnf, 1))
    calls = []
    orig = FieldEvaluator.__call__

    def counted(self, state):
        calls.append(1)
        return orig(self, state)

    monkeypatch.setattr(FieldEvaluator, "__call__", counted)
    cfg = SimConfig(n=6, a=0.05, radius=0.1, dt=0.05, horizon=2.0, seed=1)
    traj = integrate_gdnls(model, cfg)
    stats = traj.stats
    assert stats["steps"] == cfg.steps()
    assert stats["guard_margin"] == np.max(traj.energy_error) \
        / cfg.energy_guard
    assert 0.0 < stats["guard_margin"] < 1.0
    assert stats["kicks"] == 2 * cfg.steps()
    # one evaluation per fixed-point iteration, one more per update
    assert stats["midpoint_iters"] + stats["kicks"] == len(calls)
    assert stats["kicks"] <= stats["midpoint_iters"] \
        <= stats["kicks"] * stats["midpoint_iters_max"]
    assert 1 < stats["midpoint_iters_max"] < MIDPOINT_MAX_ITER
    kg = integrate_kg(cfg)
    assert kg.stats == {"steps": cfg.steps(),
                        "guard_margin": np.max(kg.energy_error)
                        / cfg.energy_guard}
    assert 0.0 < kg.stats["guard_margin"] < 1.0


def test_gdnls_guard_names_time_and_radius():
    lnf = linear_normalize(0.05, 6)
    model = extract_gdnls(normal_form(lnf, 1))
    # K drifts by ~5e-13 relative per step of 0.05 at this radius
    cfg = SimConfig(n=6, a=0.05, radius=0.1, dt=0.05, horizon=2.0, seed=1,
                    energy_guard=1e-12)
    with pytest.raises(IntegratorError,
                       match=r"exceeds guard 1e-12 at t=0.15 for radius 0.1$"):
        integrate_gdnls(model, cfg)


def test_gdnls_rejects_another_chain():
    lnf = linear_normalize(0.05, 6)
    model = extract_gdnls(normal_form(lnf, 1))
    for kw in (dict(n=8), dict(a=0.04)):
        cfg = SimConfig(**{**dict(n=6, a=0.05, radius=0.1, dt=0.05,
                                  horizon=2.0), **kw})
        with pytest.raises(ValueError, match="parameters differ"):
            integrate_gdnls(model, cfg)


def gdnls_reference(model, cfg, state_qp=None):
    """The GdNLS flow with its own step and sampling loop, as it was before
    it shared the Strang sampling loop; the reference that loop must match
    bit for bit."""
    n = model.n
    lnf = model.lnf
    if state_qp is None:
        state_qp = apply_linear(lnf, initial_state(cfg, n))
    z = np.asarray(state_qp, dtype=float).copy()
    steps = cfg.steps()
    sample_every = cfg.sample_every or max(1, steps // 2000)
    rot = _ModeRotation(lnf.circ.spectrum, cfg.dt,
                        momentum_matches_position=True)
    field_eval = FieldEvaluator(model.zeta1)
    z1_eval = RealizedEvaluator(model.zeta1)
    half = 0.5 * cfg.dt
    lam_half = np.sqrt(lnf.circ.spectrum)
    stats = {"steps": steps, "kicks": 0, "midpoint_iters": 0,
             "midpoint_iters_max": 0}

    def k_energy(zz):
        q, p = zz[:n], zz[n:]
        bq = np.fft.ifft(lam_half * np.fft.fft(q)).real
        bp = np.fft.ifft(lam_half * np.fft.fft(p)).real
        return 0.5 * (q @ bq + p @ bp) + z1_eval(zz)

    def midpoint_kick(zz, tau):
        m = zz.copy()
        for it in range(1, MIDPOINT_MAX_ITER + 1):
            nxt = zz + 0.5 * tau * field_eval(m)
            if np.max(np.abs(nxt - m)) < 1e-15 * max(1.0,
                                                     np.max(np.abs(zz))):
                m = nxt
                break
            m = nxt
        stats["kicks"] += 1
        stats["midpoint_iters"] += it
        stats["midpoint_iters_max"] = max(stats["midpoint_iters_max"], it)
        return zz + tau * field_eval(m)

    times, states, energies = [0.0], [z.copy()], [k_energy(z)]
    for step in range(1, steps + 1):
        z = midpoint_kick(z, half)
        z = rot.apply(z.reshape(2, n)).reshape(2 * n)
        z = midpoint_kick(z, half)
        if step % sample_every == 0 or step == steps:
            times.append(step * cfg.dt)
            states.append(z.copy())
            energies.append(k_energy(z))
    energies = np.array(energies)
    e0 = energies[0]
    return {"times": np.array(times), "states": np.array(states),
            "energy": energies,
            "energy_error": np.abs(energies - e0) / max(abs(e0), 1e-300),
            "stats": stats}


@pytest.mark.parametrize("kw, scale", [
    (dict(dt=-0.02), None),
    (dict(sample_every=7), None),       # 200 steps: the last gap is short
    (dict(radius=0.08), 1.1),           # state_qp given
], ids=["backward", "sample-7", "state-qp"])
def test_gdnls_bit_identical_to_own_loop(kw, scale):
    # the shared sampling loop gives the GdNLS flow exactly the times,
    # states, energies and kick counts of its former loop
    lnf = linear_normalize(0.05, 8)
    model = extract_gdnls(normal_form(lnf, 1))
    cfg = short_cfg(horizon=4.0, **kw)
    state_qp = None if scale is None \
        else scale * apply_linear(lnf, initial_state(cfg, cfg.n))
    traj = integrate_gdnls(model, cfg, state_qp)
    ref = gdnls_reference(model, cfg, state_qp)
    for name in ("times", "states", "energy", "energy_error"):
        assert np.array_equal(getattr(traj, name), ref[name]), name
    assert traj.stats == {**ref["stats"], "guard_margin":
                          np.max(ref["energy_error"]) / cfg.energy_guard}


def test_gdnls_vs_kg_deviation_shrinks():
    lnf = linear_normalize(0.05, 8)
    res = normal_form(lnf, 1)
    model = extract_gdnls(res)
    devs = []
    for radius in (0.08, 0.02):
        cfg = short_cfg(radius=radius, horizon=20.0, sample_every=20)
        kg = integrate_kg(cfg)
        gd = integrate_gdnls(model, cfg,
                             apply_linear(lnf, initial_state(cfg, cfg.n)))
        rep = compare_models(kg, gd, lnf)
        devs.append(rep["max_deviation"] / radius)
    assert devs[1] < devs[0]


def test_gdnls_couplings_vs_dnls():
    # truncating to nearest neighbour recovers the dNLS coupling scale:
    # b_1 = O(mu) while b_m for m >= 2 are O(mu^2)
    lnf = linear_normalize(0.05, 8)
    model = extract_gdnls(normal_form(lnf, 1))
    assert abs(model.b[0]) == pytest.approx(0.25 * lnf.mu, rel=0.1)
    assert all(abs(b) <= 2.0 * lnf.mu ** 2 for b in model.b[1:])


def test_trajectory_csv(tmp_path):
    cfg = short_cfg(horizon=2.0)
    lnf = linear_normalize(cfg.a, cfg.n)
    res = normal_form(lnf, 1)
    traj = integrate_kg(cfg)
    observables(traj, res)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "H", "H_Omega", "Z", "energy_error"]
    assert len(rows) == len(traj.times) + 1
    assert float(rows[1][1]) == traj.energy[0]


def test_gdnls_divergence_raises():
    # far outside the small-amplitude regime the midpoint fixed point
    # diverges to NaN; it must raise instead of returning NaN energies
    lnf = linear_normalize(0.05, 6)
    model = extract_gdnls(normal_form(lnf, 1))
    cfg = SimConfig(n=6, a=0.05, radius=30.0, dt=0.1, horizon=0.2)
    with pytest.raises(IntegratorError, match="80 iterations"):
        integrate_gdnls(model, cfg)
