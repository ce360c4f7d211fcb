"""Acceptance checks for the full library, one criterion per test.

Each test prints a single [PASS]/[FAIL] line naming the criterion, then
asserts, so `pytest -s tests/test_acceptance.py` gives the ten-line
scoreboard. Tolerances are part of the criterion; nothing here is tuned
to the integrator step beyond what the stated tolerance allows.
"""

import json
import math
import time

import numpy as np
from conftest import random_spd, rerun

import ekfcert as ek
from ekfcert.cli import main as cli_main
from ekfcert.contraction import (compare_analyses, empirical_radius,
                                 inflation_rate_gain, linear_output_check,
                                 make_certificate, zeta_plus)
from ekfcert.model import HessianBounds, estimate_hessian_bounds
from ekfcert.ode import interp
from ekfcert.sim import (Disturbance, envelope_check, perturbed_run, twin_decay,
                         variational_validator)


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {num:02d} {desc}")
    assert ok, f"criterion {num:02d} ({desc}): {detail}"


def test_01_quadratic_expansion_identity():
    # Expanding (C2 + Ctil)^T R^-1 (C2 + Ctil) and cancelling gives
    #   P (Ctil' Ri Ctil - C1' Ri C1) P
    #     = -P (C2' Ri C2 + C2' Ri Ctil + Ctil' Ri C2) P
    # with Ctil = C1 - C2. Both groupings must agree to rounding error.
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        C1 = random_spd(rng, n)
        C2 = random_spd(rng, n)
        R = random_spd(rng, n)
        P = random_spd(rng, n)
        Ri = np.linalg.inv(R)
        Ct = C1 - C2
        lhs = P @ (Ct.T @ Ri @ Ct - C1.T @ Ri @ C1) @ P
        rhs = -P @ (C2.T @ Ri @ C2 + C2.T @ Ri @ Ct + Ct.T @ Ri @ C2) @ P
        rel = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs),
                                              np.linalg.norm(rhs), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, "quadratic expansion identity on 1000 random SPD triples", ok,
            f"worst rel deviation {worst:.3e}, elapsed {elapsed:.2f}s")


def test_02_variational_derivative_matches_quadratic_form():
    # d/dt of the weighted squared variation must equal the quadratic form
    # of the contraction matrix up to O(step^2): small at T/4000 and
    # shrinking by >= 3x when the step halves, on both scalar plants.
    horizon = 4.0
    devs = {}
    for name, params, x0 in (("scalar-riccati", {}, [0.4]),
                             ("cubic-scalar", {"eps": 0.1}, [0.3])):
        entry = ek.make(name, **params)
        state = entry.analytic["state"]
        y = lambda t, s=state, x=x0: s(t, x)
        for steps in (4000, 8000):
            fc = ek.FilterConfig(model=entry.model, Q=np.eye(1), R=np.eye(1),
                                 P0=np.array([[2.0]]), x0=np.array([0.5]),
                                 horizon=horizon, step=horizon / steps)
            traj = ek.integrate_ekf(fc, y)
            devs[(name, steps)] = variational_validator(entry.model, traj,
                                                        np.asarray(x0, dtype=float))
    checks = []
    for name in ("scalar-riccati", "cubic-scalar"):
        coarse, fine = devs[(name, 4000)], devs[(name, 8000)]
        checks.append(coarse <= 1e-4 and coarse / fine >= 3.0)
    _report(2, "variational derivative matches contraction quadratic form",
            all(checks), f"deviations {devs}")


def test_03_time_varying_linear_convergence():
    # Rotating linear plant: unit initial error must fall below 1e-6 once
    # gamma * horizon >= 15, and the twin weighted rate must reach 2 gamma
    # within the 10% fitting slack. The horizon is sized from a pilot run.
    entry = ek.make("ltv-linear")
    model = entry.model
    state = entry.analytic["state"]
    x0 = np.array([0.8, -0.2])
    y = lambda t: model.h(state(t, x0), t)

    pilot = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1),
                            P0=np.eye(2), x0=x0 + np.array([1.0, 0.0]),
                            horizon=40.0)
    pilot_run = ek.integrate_ekf(pilot, y)
    gamma_pilot = pilot_run.config.q_lo / (4.0 * pilot_run.p_hi)
    horizon = 16.5 / gamma_pilot

    fc = ek.FilterConfig(model=model, Q=np.eye(2), R=np.eye(1),
                         P0=np.eye(2), x0=x0 + np.array([1.0, 0.0]),
                         horizon=horizon, step=horizon / 8000)
    traj = ek.integrate_ekf(fc, y, starts=[x0 + np.array([0.5, 0.0]),
                                           x0 - np.array([0.5, 0.0])])
    gamma = traj.config.q_lo / (4.0 * traj.p_hi)
    final_err = float(np.linalg.norm(traj.states[-1] - state(horizon, x0)))

    twin = twin_decay(traj)
    rate = twin.fitted_rate
    ok = (gamma * horizon >= 15.0 and final_err <= 1e-6
          and rate >= 2.0 * gamma * 0.9)
    _report(3, "time-varying linear plant converges at the certified rate", ok,
            f"gamma*T {gamma * horizon:.2f}, final err {final_err:.3e}, "
            f"twin rate {rate:.4f} vs {2 * gamma * 0.9:.4f}")


def test_04_region_radius_closed_forms_and_route_ratios():
    # At gamma = q_lo/(4 p_hi) the radius root collapses to closed forms,
    # and the two analysis routes differ by exactly p_hi/p_lo in rate and
    # sqrt(p_hi/p_lo) in the kappa_C = 0 basin.
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        p_lo = float(rng.uniform(0.1, 1.0))
        p_hi = p_lo * float(rng.uniform(1.0, 5.0))
        q_lo = float(rng.uniform(0.1, 4.0))
        r_lo = float(rng.uniform(0.1, 4.0))
        kA = float(rng.uniform(0.05, 3.0))
        kC = float(rng.uniform(0.05, 3.0))
        gamma = q_lo / (4.0 * p_hi)

        zC0 = zeta_plus(kA, 0.0, p_hi, q_lo, r_lo, gamma)
        zA0 = zeta_plus(0.0, kC, p_hi, q_lo, r_lo, gamma)
        worst = max(worst,
                    abs(zC0 - q_lo / (4.0 * kA * p_hi)) / zC0,
                    abs(zA0 - math.sqrt(q_lo * r_lo / 2.0) / (p_hi * kC)) / zA0)

        ratio = compare_analyses(p_lo, p_hi, q_lo, r_lo, kA, kC)["ratio"]
        worst = max(worst,
                    abs(ratio["rate"] - p_hi / p_lo) / (p_hi / p_lo),
                    abs(ratio["basin_kappa_C0"] - math.sqrt(p_hi / p_lo))
                    / math.sqrt(p_hi / p_lo))
    ok = worst <= 1e-12
    _report(4, "radius closed forms and route ratios over 100 draws", ok,
            f"worst rel deviation {worst:.3e}")


def test_05_scalar_pipeline_end_to_end(scalar_rig):
    # Unit-weight scalar plant: P equilibrates at sqrt(qr) = 1, twins decay
    # at 2 K_inf = 2, the error stays under its envelope, and a constant
    # disturbance settles at radius b / K_inf inside the standard ball.
    traj = scalar_rig["traj"]
    p_final = float(traj.covariances[-1][0, 0])
    ok_p = abs(p_final - 1.0) <= 1e-6

    twin = twin_decay(rerun(scalar_rig, [[0.8], [0.2]]))
    rate = twin.fitted_rate
    ok_twin = abs(rate - 2.0) <= 0.05 * 2.0

    cert = make_certificate(traj, HessianBounds(alpha=10.0, kappa_A=0.0, kappa_C=0.0))
    env = envelope_check(traj, cert)
    ok_env = env.passed and env.worst_margin >= 0.0

    dist = Disturbance(b=lambda z, t: np.array([0.01]), b_max=0.01)
    pert = perturbed_run(rerun(scalar_rig, [[0.4]], dist), gamma=cert.gamma)
    steady = pert.info["steady_radius"]
    ok_pert = (abs(steady - 0.01) <= 0.05 * 0.01
               and pert.info["within_standard"]
               and steady <= pert.info["ball_standard"])

    ok = ok_p and ok_twin and ok_env and ok_pert
    _report(5, "scalar plant pipeline: equilibrium, twins, envelope, disturbance",
            ok, f"P(T) {p_final:.8f}, twin rate {rate:.4f}, "
            f"envelope margin {env.worst_margin:.3e}, steady {steady:.5f}")


def test_06_linear_output_region_check_governs_twin_convergence():
    # Oscillator with position output near its unstable rest point: scale
    # Q until the sampled-box check passes, then twins from anywhere in the
    # box must converge at the certified rate; pushing gamma past
    # q_lo/(2 p_hi) must fail the check even with the estimate itself
    # among the samples.
    entry = ek.make("vanderpol-pos")
    model = entry.model
    horizon = 4.0
    x0 = np.array([0.2, 0.0])
    box = [x0 + np.array([dx, dy]) for dx in (-0.25, 0.0, 0.25)
           for dy in (-0.25, 0.0, 0.25)]

    traj = gamma = None
    for q in (0.5, 1.0, 2.0, 4.0, 8.0):
        fc = ek.FilterConfig(model=model, Q=q * np.eye(2), R=np.eye(1),
                             P0=np.eye(2), x0=x0.copy(), horizon=horizon)
        cand = ek.integrate_ekf(fc, x0=x0)
        g = cand.config.q_lo / (4.0 * cand.p_hi)
        res = linear_output_check(cand, box, g)
        if res["passed"]:
            traj, gamma, p_hi = cand, g, cand.p_hi
            break
    ok_scaled = traj is not None

    ok_twins = False
    if ok_scaled:
        corners = [x0 + np.array([sx * 0.25, sy * 0.25])
                   for sx in (-1, 1) for sy in (-1, 1)]
        pairs = [(corners[0], corners[3]), (corners[1], corners[2]),
                 (corners[0], x0)]
        rates = [twin_decay(ek.integrate_ekf(traj.config, x0=x0, starts=pair))
                 .fitted_rate for pair in pairs]
        ok_twins = all(r >= gamma * 0.9 for r in rates)

        over_cap = linear_output_check(traj, box, 1.05 * traj.config.q_lo / (2.0 * p_hi))
        ok_cap = not over_cap["passed"]
    ok = ok_scaled and ok_twins and ok_cap
    _report(6, "linear-output region check governs oscillator twin convergence",
            ok, f"gamma {gamma}, twin rates {ok_scaled and rates}, "
            f"over-cap margin {ok_scaled and over_cap['worst_margin']}")


def test_07_covariance_inflation_raises_decay_rate():
    # Adding N >= n_lo I to the covariance flow buys at least n_lo/p_hi of
    # extra rate: algebraically on 1000 random triples, then on the cubic
    # plant where both equilibria are known in closed form.
    rng = np.random.default_rng(7)
    all_hold = True
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        P = random_spd(rng, n)
        gamma = float(rng.uniform(0.05, 1.0))
        W = rng.standard_normal((n, n))
        M = -2.0 * gamma * P - W @ W.T
        N = random_spd(rng, n, lo=0.05, hi=1.5)
        all_hold = all_hold and inflation_rate_gain(M, P, N, gamma)

    entry = ek.make("cubic-scalar", eps=0.1)
    n_lo = 0.2
    y = lambda t: np.zeros(1)
    rates = {}
    p_hi_N = None
    for n_val in (0.0, n_lo):
        # start P at its own equilibrium so the run is stationary
        p_eq = -1.0 + math.sqrt(2.0 + 2.0 * n_val)
        fc = ek.FilterConfig(model=entry.model, Q=np.eye(1), R=np.eye(1),
                             P0=np.array([[p_eq]]), x0=np.zeros(1),
                             horizon=6.0, step=6.0 / 3000,
                             N=None if n_val == 0.0 else n_val * np.eye(1))
        traj = ek.integrate_ekf(fc, y, starts=[[0.3], [-0.3]])
        if n_val > 0.0:
            p_hi_N = traj.p_hi
        twin = twin_decay(traj)
        rates[n_val] = twin.fitted_rate
    gain = rates[n_lo] - rates[0.0]
    need = 0.5 * n_lo / p_hi_N
    ok = all_hold and gain >= need
    _report(7, "covariance inflation raises the twin decay rate", ok,
            f"algebraic all hold {all_hold}, rate gain {gain:.4f} vs {need:.4f}")


def test_08_curvature_bound_estimator_matches_analytic_values():
    # Sampled curvature bounds: within 10% of 6 eps alpha on the cubic
    # plant, exactly zero on every linear one.
    entry = ek.make("cubic-scalar", eps=0.1)
    est = estimate_hessian_bounds(entry.model, [np.zeros(1)], 0.0, 2.0, safety=1.0)
    exact = entry.analytic["kappa_A"](2.0)
    ok_cubic = abs(est.kappa_A - exact) <= 0.1 * exact and est.kappa_C <= 1e-10

    ok_linear = True
    for name, params, center in (("scalar-riccati", {}, np.array([0.7])),
                                 ("ltv-linear", {}, np.array([1.0, -0.5])),
                                 ("cubic-scalar", {"eps": 0.0}, np.zeros(1))):
        lin = estimate_hessian_bounds(ek.make(name, **params).model,
                                      [center], 0.0, 3.0, safety=1.0)
        ok_linear = ok_linear and lin.kappa_A <= 1e-10 and lin.kappa_C <= 1e-10
    ok = ok_cubic and ok_linear
    _report(8, "curvature bound estimator matches analytic values", ok,
            f"cubic kappa_A {est.kappa_A:.4f} vs {exact}, linear zero {ok_linear}")


def test_09_sampled_radius_dominates_analytic_radius(cubic_rig):
    # The analytic radius is sufficient, never necessary, so the sampled
    # radius must dominate it at every probed time.
    traj = cubic_rig["traj"]
    fc = cubic_rig["fc"]
    # |f''| <= 6 eps (alpha + max |xhat|) over the probed tube
    alpha = 1.0
    kA = 6.0 * 0.1 * (alpha + float(np.max(np.abs(traj.states))))
    cert = make_certificate(traj, HessianBounds(alpha=alpha, kappa_A=kA, kappa_C=0.0))
    margins = []
    for t in np.linspace(0.0, float(traj.times[-1]), 9):
        xhat, P = (interp(traj.times, v, float(t)) for v in (traj.states, traj.covariances))
        r_emp = empirical_radius(cubic_rig["model"], xhat, P, fc.Q, fc.R,
                                 cert.gamma, float(t), direction_samples=16)
        margins.append(r_emp - cert.zeta_plus)
    ok = all(m >= -1e-9 * cert.zeta_plus for m in margins)
    _report(9, "sampled contraction radius dominates the analytic radius", ok,
            f"zeta+ {cert.zeta_plus:.4f}, worst margin {min(margins):.4f}")


def test_10_twin_command_output_is_byte_identical(tmp_path):
    cfg = {
        "system": {"name": "scalar-riccati"},
        "filter": {"Q": [[1.0]], "R": [[1.0]], "P0": [[2.0]], "xhat0": [0.5]},
        "truth": {"x0": [0.4]},
        "horizon": 6.0,
        "hessian": {"kappa_A": 0.0, "kappa_C": 0.0, "alpha": 10.0},
        "twin": {"z1_0": [0.8], "z2_0": [0.3]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["twin", "--config", str(path), "--out", str(out)])
        assert rc == 0
        blobs.append((out / "twin.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(10, "twin command output is byte identical across runs", ok,
            f"sizes {len(blobs[0])} vs {len(blobs[1])}")
