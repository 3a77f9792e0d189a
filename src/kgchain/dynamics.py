"""Symplectic integration of the chain and adiabatic-invariance experiments.

The integrator is a Strang splitting between the full quadratic flow,
solved exactly in DFT normal modes, and the on-site quartic kick.  Solving
the linear part exactly removes stiffness from the comparison and isolates
the nonlinear drift, which is the object under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import _norm_pairs
from .chainpoly import envelope_constant
from .cyclic import FieldEvaluator, RealizedEvaluator
from .linearize import LinearNF, apply_linear, build_A
from .normalform import GdnlsModel, NormalFormResult


# Iteration cap of the GdNLS midpoint fixed point; hitting it is an error.
MIDPOINT_MAX_ITER = 80


class IntegratorError(RuntimeError):
    pass


@dataclass
class SimConfig:
    n: int = 16
    a: float = 0.05
    radius: float = 0.05            # amplitude scale in the chosen norm
    norm: str = "l2"                # "l2" (total) | "linf" (specific)
    dt: float = 0.01
    horizon: float = 1e3
    order: int = 1
    initial: str = "uniform-random-phase"   # or "single-site", "state"
    state: np.ndarray | None = None
    seed: int = 0
    quartic: bool = True            # harmonic test mode when False
    soft: bool = False
    sample_every: int | None = None
    energy_guard: float = 1e-3

    def steps(self) -> int:
        # dt < 0 integrates backwards over the same horizon
        steps = self.horizon / abs(self.dt)
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer multiple of dt")
        return int(round(steps))

    def validate(self):
        if self.dt == 0:
            raise ValueError("dt must be nonzero")
        lam_max = 1.0 + 4.0 * self.a
        if abs(self.dt) * math.sqrt(lam_max) >= 0.5:
            raise ValueError("dt too large: dt * max frequency must be < 0.5")
        if self.norm not in ("l2", "linf"):
            raise ValueError("norm must be 'l2' or 'linf'")
        self.steps()


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray              # (samples, 2N)
    energy: np.ndarray              # H at the sample times
    energy_error: np.ndarray        # relative |H - H(0)| / |H(0)|
    config: SimConfig
    observables: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)    # integrator work counts


def initial_state(cfg: SimConfig, n: int) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(n)
    y = np.zeros(n)
    if cfg.initial == "single-site":
        x[0] = cfg.radius
    elif cfg.initial == "uniform-random-phase":
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        amp = cfg.radius if cfg.norm == "linf" else cfg.radius / math.sqrt(n)
        x = amp * np.cos(phases)
        y = amp * np.sin(phases)
    elif cfg.initial == "state":
        if cfg.state is None:
            raise ValueError("initial='state' needs cfg.state")
        z = np.asarray(cfg.state, dtype=float)
        if z.shape != (2 * n,):
            raise ValueError("state must have length 2N")
        return z.copy()
    else:
        raise ValueError(f"unknown initial condition {cfg.initial!r}")
    return np.concatenate([x, y])


def kg_energy(x: np.ndarray, y: np.ndarray, a: float,
              quartic: bool = True, soft: bool = False):
    """H = 1/2 sum (y^2 + x^2 + a (x_{j+1}-x_j)^2) +- 1/4 sum x^4.

    The sums run over the last axis, so a batch of states (..., N) gives
    one energy per state.
    """
    coupling = a * np.sum((np.roll(x, -1, axis=-1) - x) ** 2, axis=-1)
    h = 0.5 * (np.sum(y * y, axis=-1) + np.sum(x * x, axis=-1) + coupling)
    if quartic:
        h += (-0.25 if soft else 0.25) * np.sum(x ** 4, axis=-1)
    return h


class _ModeRotation:
    """Exact flow of the quadratic part in Fourier modes."""

    def __init__(self, spectrum: np.ndarray, dt: float,
                 momentum_matches_position: bool = False):
        om = np.sqrt(spectrum)
        cos = np.cos(om * dt)
        sin = np.sin(om * dt)
        # xdot = y uses sin/omega, ydot = -A x uses -omega sin; for the
        # B-quadratic GdNLS flow both blocks carry B.
        if momentum_matches_position:
            cross = (sin, -sin)
        else:
            cross = (sin / om, -om * sin)
        # new block k = cos * block k + cross[k] * the other block; the
        # factors are cast to complex once, as each product would cast them
        self.cos = cos.astype(complex)
        self.cross = np.stack(cross).astype(complex)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Rotate stacked states (..., 2, N): position block, then momentum.

        The FFTs run row by row over the last axis, so every state of a
        batch gets the same float64 operations as alone.
        """
        zh = np.fft.fft(z)
        return np.fft.ifft(self.cos * zh
                           + self.cross * zh[..., ::-1, :]).real


def integrate_kg(cfg: SimConfig) -> Trajectory:
    """Strang splitting: half quartic kick, exact linear flow, half kick.

    Aborts with :class:`IntegratorError` when the relative energy drift
    exceeds the instability guard.  ``traj.stats`` records ``steps`` and
    ``guard_margin``, the largest sampled relative energy error over
    ``energy_guard``.
    """
    return _integrate_strang([cfg])[0]


def _integrate_strang(cfgs: list[SimConfig]) -> list[Trajectory]:
    """:func:`integrate_kg` for a batch of configurations that differ only
    in their initial states (radius, norm, seed, initial condition) and
    guards; the chain, the step and the sampling are those of ``cfgs[0]``.

    The states advance together as one (B, 2, N) array, one FFT pair per
    step for the whole batch.  Each row gets the same float64 operations
    as a trajectory integrated alone, so its results are bit for bit those
    of :func:`integrate_kg` on its configuration.
    """
    for c in cfgs:
        c.validate()
    cfg = cfgs[0]
    n = cfg.n
    rot = _ModeRotation(build_A(cfg.a, n).spectrum, cfg.dt)
    kick = 0.5 * cfg.dt * (-1.0 if cfg.soft else 1.0)

    def advance(z):
        z[:, 1] -= kick * z[:, 0] ** 3
        z = rot.apply(z)
        z[:, 1] -= kick * z[:, 0] ** 3
        return z

    return _sample_flow(
        cfgs, np.array([initial_state(c, n) for c in cfgs]).reshape(-1, 2, n),
        advance if cfg.quartic else rot.apply,
        lambda z: kg_energy(z[:, 0], z[:, 1], cfg.a, cfg.quartic, cfg.soft))


def _sample_flow(cfgs: list[SimConfig], z: np.ndarray, advance,
                 energy) -> list[Trajectory]:
    """The sampling loop of every trajectory: ``cfgs[0].steps()`` calls of
    ``advance`` on the (B, 2, N) state ``z``, one row per configuration.

    ``energy(z)`` gives the conserved energy of each row.  At every
    ``sample_every``-th step and at the last one, the states and energies
    are recorded and checked: a row whose relative energy error exceeds
    its ``energy_guard`` (NaN included) raises :class:`IntegratorError`
    naming the time and that row's radius.  Each trajectory's ``stats``
    get ``steps`` and ``guard_margin``.
    """
    cfg = cfgs[0]
    steps = cfg.steps()
    sample_every = cfg.sample_every or max(1, steps // 2000)
    samples = 1 + steps // sample_every + (steps % sample_every != 0)
    guard = np.array([c.energy_guard for c in cfgs])
    times = np.empty(samples)
    states = np.empty((len(cfgs), samples) + z.shape[1:])
    energies = np.empty((len(cfgs), samples))

    def record(k, t):
        times[k] = t
        states[:, k] = z
        energies[:, k] = energy(z)

    record(0, 0.0)
    e0 = energies[:, 0]
    scale = np.maximum(np.abs(e0), 1e-300)
    k = 0
    for step in range(1, steps + 1):
        z = advance(z)
        if step % sample_every == 0 or step == steps:
            k += 1
            record(k, step * cfg.dt)
            err = np.abs(energies[:, k] - e0) / scale
            # NaN trips the guard too
            bad = np.flatnonzero(~(err <= guard))
            if bad.size:
                b = bad[0]
                raise IntegratorError(
                    f"energy drift {err[b]:.2e} exceeds guard "
                    f"{guard[b]:g} at t={step*cfg.dt:g} for radius "
                    f"{cfgs[b].radius:g}")

    error = np.abs(energies - e0[:, None]) / scale[:, None]
    return [Trajectory(times=times.copy(),
                       states=states[b].reshape(samples, -1),
                       energy=energies[b], energy_error=error[b], config=c,
                       stats={"steps": steps, "guard_margin":
                              float(np.max(error[b]) / c.energy_guard)})
            for b, c in enumerate(cfgs)]


def observables(traj: Trajectory, res: NormalFormResult,
                orders: tuple[int, ...] | None = None) -> dict:
    """Series of H_Omega and the normal-form truncations along a trajectory.

    Everything is evaluated in the linearly normalized coordinates
    q = A^{1/4} x, p = A^{-1/4} y; the full nonlinear coordinate map is not
    applied (its effect is the deformation term, reported separately by the
    bound machinery).  Returns, for each requested order rho, the series
    J_rho = H_Omega + Z_0 + ... + Z_rho.
    """
    lnf = res.lnf
    if traj.config.n != lnf.n or traj.config.a != lnf.a:
        raise ValueError("trajectory and normal form parameters differ")
    n = lnf.n
    if orders is None:
        orders = tuple(range(res.order + 1))
    qp = apply_linear(lnf, traj.states)
    q, p = qp[..., :n], qp[..., n:]
    h_omega = 0.5 * lnf.omega * np.sum(q * q + p * p, axis=-1)

    # Z_0 in closed quadratic form: 1/2 (q.Bq + p.Bp) - H_Omega
    lam_half = np.sqrt(lnf.circ.spectrum)
    bq = np.fft.ifft(lam_half * np.fft.fft(q, axis=-1), axis=-1).real
    bp = np.fft.ifft(lam_half * np.fft.fft(p, axis=-1), axis=-1).real
    z0 = 0.5 * (np.sum(q * bq, axis=-1) + np.sum(p * bp, axis=-1)) - h_omega

    series = {"t": traj.times, "H": traj.energy,
              "H_Omega": h_omega, "Z0": z0,
              "energy_error": traj.energy_error}
    zs = []
    for s, zeta in enumerate(res.zetas, 1):
        if s > max(orders, default=0):
            break
        ev = RealizedEvaluator(zeta)
        zs.append(np.array([ev(state) for state in qp]))
        series[f"Z{s}"] = zs[-1]
    for rho in orders:
        j = h_omega + z0
        for s in range(1, rho + 1):
            j = j + zs[s - 1]
        series[f"J{rho}"] = j
    series["Z"] = series[f"J{max(orders)}"] - h_omega
    traj.observables.update(series)
    return series


def drift_experiment(base_cfg: SimConfig, ladder: list[float],
                     res: NormalFormResult) -> dict:
    """Maximal drifts of H_Omega and of the normal-form combination over an
    amplitude ladder, with the log-log slope against the radius.

    The report carries the fourth-power reference bounds Omega R^4 and
    R^4 (C_zeta0 mu + C_h1 R^2) for comparison, and under ``trajectories``
    the integrated trajectories, observables included, in the order of
    the ``ladder`` rows (decreasing radius).  The ladder is integrated in
    one batched pass; its trajectories are bit for bit those of
    :func:`integrate_kg` on each radius.
    """
    if len(ladder) < 2:
        raise ValueError("ladder needs at least two amplitudes")
    lnf = res.lnf
    sig0 = lnf.sigma0 if math.isfinite(lnf.sigma0) else 50.0
    c_z0 = envelope_constant(_norm_pairs(lnf.zeta0), sig0)
    c_h1 = envelope_constant(_norm_pairs(lnf.h1), lnf.sigma1
                             if math.isfinite(lnf.sigma1) else 25.0)

    trajs = _integrate_strang([replace(base_cfg, radius=radius)
                               for radius in sorted(ladder, reverse=True)])
    rows = []
    for traj in trajs:
        radius = traj.config.radius
        obs = observables(traj, res)
        dh = float(np.max(np.abs(obs["H_Omega"] - obs["H_Omega"][0])))
        dz = float(np.max(np.abs(obs["Z"] - obs["Z"][0])))
        rows.append({
            "radius": radius,
            "max_dH_Omega": dh,
            "max_dZ": dz,
            "bound_H_Omega": lnf.omega * radius ** 4,
            "bound_Z": radius ** 4 * (c_z0 * lnf.mu + c_h1 * radius ** 2),
            "max_energy_error": float(np.max(traj.energy_error)),
        })
    radii = np.array([r["radius"] for r in rows])
    dhs = np.array([r["max_dH_Omega"] for r in rows])
    dzs = np.array([r["max_dZ"] for r in rows])
    slope_h = float(np.polyfit(np.log(radii), np.log(np.maximum(dhs, 1e-300)),
                               1)[0])
    slope_z = float(np.polyfit(np.log(radii), np.log(np.maximum(dzs, 1e-300)),
                               1)[0])
    return {
        "ladder": rows,
        "slope_H_Omega": slope_h,
        "slope_Z": slope_z,
        "monotone_H_Omega": bool(np.all(np.diff(dhs) < 0)),
        "within_10x_bound": bool(all(r["max_dH_Omega"]
                                     <= 10.0 * r["bound_H_Omega"]
                                     for r in rows)),
        "trajectories": trajs,
    }


# -- GdNLS flow ---------------------------------------------------------------

def integrate_gdnls(model: GdnlsModel, cfg: SimConfig,
                    state_qp: np.ndarray | None = None) -> Trajectory:
    """Flow of K = H_Omega + Z_0 + Z_1 in the normalized coordinates.

    Strang composition of the exact quadratic flow (H_Omega + Z_0 is the
    circulant quadratic form of A^{1/2} in both blocks) with an implicit
    midpoint substep for the quartic Z_1.  The midpoint rule preserves
    quadratic invariants, so H_Omega is conserved up to the fixed-point
    tolerance even across the nonlinear kick.  The sampling and the
    energy guard are those of :func:`integrate_kg`; ``cfg`` must describe
    the model's chain.

    ``traj.stats`` records the work: ``steps``, ``guard_margin``,
    ``kicks`` (midpoint substeps), ``midpoint_iters`` (fixed-point
    iterations summed over the kicks) and ``midpoint_iters_max`` (the most
    in one kick).  Each kick evaluates the field once per iteration and
    once more for the update, so the field is evaluated
    ``midpoint_iters + kicks`` times.
    """
    cfg.validate()
    if cfg.n != model.n or cfg.a != model.a:
        raise ValueError("configuration and GdNLS model parameters differ")
    n = model.n
    lnf = model.lnf
    if state_qp is None:
        state_qp = apply_linear(lnf, initial_state(cfg, n))
    z = np.asarray(state_qp, dtype=float).reshape(1, 2, n)
    rot = _ModeRotation(lnf.circ.spectrum, cfg.dt,
                        momentum_matches_position=True)
    field_eval = FieldEvaluator(model.zeta1)
    z1_eval = RealizedEvaluator(model.zeta1)
    half = 0.5 * cfg.dt
    lam_half = np.sqrt(lnf.circ.spectrum)
    stats = {"kicks": 0, "midpoint_iters": 0, "midpoint_iters_max": 0}

    def k_energy(z):
        zz = z.reshape(2 * n)
        q, p = zz[:n], zz[n:]
        bq = np.fft.ifft(lam_half * np.fft.fft(q)).real
        bp = np.fft.ifft(lam_half * np.fft.fft(p)).real
        return 0.5 * (q @ bq + p @ bp) + z1_eval(zz)

    def midpoint_kick(zz):
        m = zz.copy()
        for it in range(1, MIDPOINT_MAX_ITER + 1):
            nxt = zz + 0.5 * half * field_eval(m)
            if np.max(np.abs(nxt - m)) < 1e-15 * max(1.0,
                                                     np.max(np.abs(zz))):
                m = nxt
                break
            m = nxt
        else:
            raise IntegratorError(
                "GdNLS midpoint fixed point did not converge in "
                f"{MIDPOINT_MAX_ITER} iterations")
        stats["kicks"] += 1
        stats["midpoint_iters"] += it
        stats["midpoint_iters_max"] = max(stats["midpoint_iters_max"], it)
        return zz + half * field_eval(m)

    def advance(z):
        zz = midpoint_kick(z.reshape(2 * n))
        zz = rot.apply(zz.reshape(2, n)).reshape(2 * n)
        return midpoint_kick(zz).reshape(1, 2, n)

    traj = _sample_flow([cfg], z, advance, k_energy)[0]
    traj.stats.update(stats)
    q, p = traj.states[..., :n], traj.states[..., n:]
    traj.observables["H_Omega"] = 0.5 * model.omega * np.sum(
        q * q + p * p, axis=-1)
    return traj


def compare_models(kg_traj: Trajectory, gdnls_traj: Trajectory,
                   lnf: LinearNF) -> dict:
    """Sup-norm deviation between the KG flow (mapped to normalized
    coordinates) and the GdNLS flow, per sample time."""
    n = lnf.n
    if len(kg_traj.times) != len(gdnls_traj.times) or \
            not np.allclose(kg_traj.times, gdnls_traj.times):
        raise ValueError("trajectories must share sample times")
    kg_qp = apply_linear(lnf, kg_traj.states)
    dev = np.max(np.abs(kg_qp - gdnls_traj.states), axis=-1)
    return {"t": kg_traj.times, "deviation": dev,
            "max_deviation": float(np.max(dev))}

