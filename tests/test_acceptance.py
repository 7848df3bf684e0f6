"""End-to-end acceptance suite.

Each test exercises one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line.  The order-of-h criteria (1 and 2) run the
published problem/grid settings in the configuration the convergence
theorems analyze (one correction per step, step size 1/L1); the qualitative
and bound criteria run the published cost-matched parameter rows directly.
The whole module is sized for a laptop: the longest test is the robust
regression sweep (about five minutes), everything else runs in seconds to a
couple of minutes.
"""

import numpy as np
import pytest

from predcorr import (
    ProblemConstants,
    SolverConfig,
    TimeGrid,
    check_post_convergence,
    check_tvgd_pl_envelope,
    finite_difference_check,
    fit_order,
    linreg_g2_from_values,
    make_linreg,
    make_mf,
    make_robust,
    make_toy,
    max_prediction_increase,
    mf_warm_start,
    ratio_bound_selftest,
    rng_from_seed,
    run,
    stationarity_threshold,
    synth_ratings,
    tail_stats,
)
from predcorr.config import resolve_configs, build_problem, build_x0


def report(criterion: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {criterion}: {text}"


def theorem_solver(algorithm: str, beta: float, zeta: float = 1.0, g_choice: str = "plain"):
    """Solver settings the convergence analyses assume: C = 1, beta = 1/L1."""
    return SolverConfig(
        algorithm=algorithm, C=1, beta=beta, zeta=zeta, delta=1e-10, g_choice=g_choice
    )


# ---------------------------------------------------------------------------
# criterion 1: order in h for the PL benchmark
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_1_pl_gap_orders():
    problem = make_linreg("linreg_static")
    grid5 = [(0.1, 2000), (0.01, 20000), (0.001, 200000)]
    x0 = rng_from_seed(0).standard_normal(10)
    solvers = {
        "tvgd": theorem_solver("tvgd", beta=0.01),
        "foa_min": theorem_solver("foa_min", beta=0.01, zeta=2.5),
        "cp": theorem_solver("cp", beta=0.01, zeta=2.5, g_choice="extrapolated"),
    }
    slopes = {}
    for name, cfg in solvers.items():
        pts = []
        for h, steps in grid5:
            tr = run(problem, cfg, TimeGrid(h, steps), x0)
            pts.append((h, tail_stats(tr).mean_gap))
        slopes[name] = fit_order(pts).slope
    ok = (
        0.7 <= slopes["tvgd"] <= 1.3
        and 1.6 <= slopes["foa_min"] <= 2.4
        and 1.6 <= slopes["cp"] <= 2.4
    )
    report(
        1,
        ok,
        "mean tail gap orders on the moving-target least-squares sweep: "
        f"tvgd {slopes['tvgd']:.3f} in [0.7, 1.3], foa_min {slopes['foa_min']:.3f} "
        f"and cp {slopes['cp']:.3f} in [1.6, 2.4]",
    )


# ---------------------------------------------------------------------------
# criterion 2: order in h for the non-convex robust benchmarks
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_2_nonconvex_gradient_orders():
    grid7 = [(0.05, 20000), (0.01, 100000), (0.001, 1000000)]
    x0 = rng_from_seed(0).standard_normal(10)
    details = []
    ok = True
    for loss in ("robust_gm", "robust_welsch"):
        problem = make_robust(loss)
        slopes = {}
        for name, cfg in (
            ("tvgd", theorem_solver("tvgd", beta=0.01)),
            ("foa_min", theorem_solver("foa_min", beta=0.01, zeta=1.5)),
        ):
            pts = []
            for h, steps in grid7:
                tr = run(problem, cfg, TimeGrid(h, steps), x0, compute_gap=False)
                pts.append((h, tail_stats(tr).mean_grad))
            slopes[name] = fit_order(pts).slope
        loss_ok = 0.7 <= slopes["foa_min"] <= 1.3 and slopes["tvgd"] < slopes["foa_min"] - 0.2
        ok &= loss_ok
        details.append(f"{loss}: foa_min {slopes['foa_min']:.3f}, tvgd {slopes['tvgd']:.3f}")
    report(
        2,
        ok,
        "gradient-norm orders on the robust sweeps (foa_min in [0.7, 1.3], "
        "tvgd at least 0.2 lower): " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# criterion 3: qualitative reproduction on the 1-D benchmark
# ---------------------------------------------------------------------------

def tail_mean(values: np.ndarray) -> float:
    n = len(values)
    return float(np.mean(values[n - n // 2:]))


def test_criterion_3_toy_qualitative():
    (cfg,) = resolve_configs("table2")
    problem = build_problem(cfg)
    x0 = build_x0(cfg, problem)
    grid = TimeGrid(*cfg.grid[0])
    traces = {s.label: run(problem, s, grid, x0) for s in cfg.solvers}

    t_g1 = traces["ufopc_gamma1"]
    t_g0 = traces["ufopc_gamma0"]
    t_foa = traces["foa_min"]
    t_cp = traces["cp"]

    diverged_fast = t_g1.diverged and t_g1.diverged_step is not None and t_g1.diverged_step < 50
    g0_finite_but_worse = (not t_g0.diverged) and (
        tail_mean(t_g0.f_pred) > tail_mean(t_foa.f_pred)
    )
    stable = not t_foa.diverged and not t_cp.diverged
    cp_sharper = tail_stats(t_cp).mean_grad <= tail_stats(t_foa).mean_grad
    ok = diverged_fast and g0_finite_but_worse and stable and cp_sharper
    report(
        3,
        ok,
        f"quadratic-model predictor with full gradient weight diverges at step "
        f"{t_g1.diverged_step} (< 50); with zero weight it stays finite but its tail mean "
        f"value {tail_mean(t_g0.f_pred):.3g} exceeds the normalized-step predictor's "
        f"{tail_mean(t_foa.f_pred):.3g}; foa_min/cp never diverge; cp tail mean gradient "
        f"{tail_stats(t_cp).mean_grad:.2e} <= foa_min's {tail_stats(t_foa).mean_grad:.2e}",
    )


# ---------------------------------------------------------------------------
# criteria 4 and 5: envelope and post-convergence certification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table5_tvgd_traces():
    """Cost-matched gradient-only runs (C = 4) with gaps, one per period."""
    (cfg,) = resolve_configs("table5")
    problem = build_problem(cfg)
    x0 = build_x0(cfg, problem)
    tvgd = next(s for s in cfg.solvers if s.algorithm == "tvgd")
    out = {}
    for h, steps in cfg.grid:
        out[h] = run(problem, tvgd, TimeGrid(h, steps), x0)
    return out


def test_criterion_4_envelope(table5_tvgd_traces):
    details = []
    ok = True
    for h, trace in table5_tvgd_traces.items():
        g2 = linreg_g2_from_values(trace.f_pred)
        constants = ProblemConstants(L1=100.0, mu=0.01, G2=g2)
        grid = TimeGrid(h, len(trace))
        viol = check_tvgd_pl_envelope(trace, constants, grid)
        # tolerance scales with the largest envelope value along the run
        scale = trace.gap[0] + 2 * g2 * h / (1 - constants.rho)
        h_ok = viol <= 1e-9 + 1e-9 * scale
        ok &= h_ok
        details.append(f"h={h:g}: violation {viol:.2e}")
    report(4, ok, "geometric-decay-plus-drift envelope holds on every period: "
           + "; ".join(details))


def test_criterion_5_post_convergence(table5_tvgd_traces):
    details = []
    ok = True
    # gradient-only runs on the moving-target least squares
    for h, trace in table5_tvgd_traces.items():
        g2 = linreg_g2_from_values(trace.f_pred)
        constants = ProblemConstants(L1=100.0, G2=g2)
        thr = stationarity_threshold("tvgd", constants, h)
        rep = check_post_convergence(trace, thr, constants, h, "tvgd")
        ok &= rep.converged and rep.ok
        details.append(f"tvgd h={h:g}: {len(rep.violations)} violations")

    # normalized-step predictor on the drifting ripple benchmark
    toy = make_toy()
    cfg = SolverConfig(algorithm="foa_min", C=1, beta=1.0, zeta=10.0, delta=1e-10)
    trace = run(toy, cfg, TimeGrid(0.1, 1000), np.array([8.0]), compute_gap=True)
    constants = ProblemConstants(L1=1.1, L2=11.0, L3=110.0)
    thr = stationarity_threshold("foa_min", constants, 0.1, zeta=10.0, delta=1e-10)
    rep = check_post_convergence(trace, thr, constants, 0.1, "foa_min", zeta=10.0, delta=1e-10)
    ok &= rep.converged and rep.ok
    details.append(f"foa_min toy: {len(rep.violations)} violations")
    report(5, ok, "post-convergence guarantees certified with zero violations: "
           + "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: prediction-gap order under period halving
# ---------------------------------------------------------------------------

def test_criterion_6_prediction_gap_orders():
    toy = make_toy()
    # start on the slope where the landscape drifts uphill through the
    # iterate, so the no-prediction increase stays first order
    x0 = np.array([2.5])
    steps = 200
    solvers = {
        "tvgd": theorem_solver("tvgd", beta=1.0),
        "foa_min": theorem_solver("foa_min", beta=1.0, zeta=10.0),
        "cp": theorem_solver("cp", beta=1.0, zeta=10.0, g_choice="plain"),
    }
    windows = {"tvgd": (1.6, 2.4), "foa_min": (3.0, 5.0), "cp": (3.0, 5.0)}
    details = []
    ok = True
    for name, cfg in solvers.items():
        inc = {}
        for h in (0.05, 0.025):
            tr = run(toy, cfg, TimeGrid(h, steps), x0, record_f_corr=True)
            inc[h] = max_prediction_increase(tr)
        ratio = inc[0.05] / inc[0.025]
        lo, hi = windows[name]
        ok &= lo <= ratio <= hi
        details.append(f"{name} ratio {ratio:.2f} in [{lo}, {hi}]")
    report(6, ok, "halving the period scales the worst one-step value increase as "
           "expected: " + "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: trust-radius step against brute force
# ---------------------------------------------------------------------------

def test_criterion_7_cauchy_step_matches_brute_force():
    from predcorr import predict_cauchy_point, predict_foa_min

    rng = rng_from_seed(2024)
    worst_gap = 0.0
    dominated = True
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        g = rng.standard_normal(d)
        while np.linalg.norm(g) < 1e-3:
            g = rng.standard_normal(d)
        A = rng.standard_normal((d, d))
        H = 0.5 * (A + A.T)
        radius = float(rng.uniform(0.05, 3.0))
        x = rng.standard_normal(d)

        gn = np.linalg.norm(g)
        direction = -g / gn

        def model(s):
            return -s * gn + 0.5 * s * s * float(direction @ H @ direction)

        x_cp = predict_cauchy_point(g, H, x, radius, 1.0, 1e-12)
        x_foa = predict_foa_min(g, x, radius, 1.0, 1e-12)
        m_cp = model(float(np.linalg.norm(x_cp - x)))
        m_foa = model(float(np.linalg.norm(x_foa - x)))

        s_grid = np.linspace(0.0, radius, 200_001)
        m_grid = -s_grid * gn + 0.5 * s_grid**2 * float(direction @ H @ direction)
        brute = float(np.min(m_grid))

        worst_gap = max(worst_gap, abs(m_cp - brute))
        dominated &= m_cp <= m_foa + 1e-12
    ok = worst_gap <= 1e-6 and dominated
    report(
        7,
        ok,
        f"over 1000 random quadratic models the trust-radius step is within "
        f"{worst_gap:.2e} of the brute-force line minimum and never above the "
        f"full-step model value",
    )


# ---------------------------------------------------------------------------
# criterion 8: oracle integrity
# ---------------------------------------------------------------------------

def test_criterion_8_oracle_integrity():
    problems = [
        make_toy(),
        make_linreg("linreg_static"),
        make_linreg("linreg_drift"),
        make_robust("robust_gm"),
        make_robust("robust_welsch"),
        make_mf(
            synth_ratings(12, 9, 300, 3, 0.2, seed=1),
            latent_dim=3, reg=0.01, reveal_per_step=5, initial_revealed=50,
        ),
    ]
    details = []
    ok = True
    for p in problems:
        rep = finite_difference_check(p, samples=10, seed=3)
        p_ok = rep.grad_x_max_rel < 1e-6
        if rep.hess_xx_max_rel is not None:
            p_ok &= rep.hess_xx_max_rel < 1e-4
        ok &= p_ok
        details.append(f"{p.name} grad {rep.grad_x_max_rel:.1e}")
    worst = ratio_bound_selftest(trials=200, seed=0)
    ok &= worst <= 1e-9
    details.append(f"ratio bound worst violation {worst:.1e}")
    report(8, ok, "finite differences confirm every analytic oracle and the "
           "inner-product ratio bound holds: " + "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 9: streaming factorization at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_mf_prediction_beats_gradient_only():
    latent, reg, h, beta, zeta = 20, 0.01, 0.01, 10.0, 10.0
    reveal, initial = 30, 10_000
    details = []
    ok = True
    for seed in (0, 1, 2):
        ds = synth_ratings(80, 70, 40_000, 5, 0.3, seed=seed)
        problem = make_mf(ds, latent, reg, reveal, initial, step_period=h)
        steps = (len(ds) - initial) // reveal
        grid = TimeGrid(h, steps)
        for level in (0.1, 1e-4):
            x0, _ = mf_warm_start(problem, level, seed=seed + 100, beta=beta)
            maxg = {}
            for name, cfg in (
                ("tvgd", SolverConfig(algorithm="tvgd", C=2, beta=beta)),
                (
                    "foa_min",
                    SolverConfig(
                        algorithm="foa_min", C=1, beta=beta, zeta=zeta, delta=1e-10
                    ),
                ),
            ):
                tr = run(problem, cfg, grid, x0, compute_gap=False)
                assert not tr.diverged
                quarter = tr.grad_norm[len(tr) - len(tr) // 4:]
                maxg[name] = float(np.max(quarter))
            pair_ok = maxg["foa_min"] <= maxg["tvgd"]
            ok &= pair_ok
            details.append(
                f"seed {seed} level {level:g}: foa {maxg['foa_min']:.2e} vs "
                f"tvgd {maxg['tvgd']:.2e}"
            )
    report(
        9,
        ok,
        "on the streaming factorization the normalized-step predictor's worst tail "
        "gradient never exceeds the gradient-only baseline's (matched per-step cost): "
        + "; ".join(details),
    )
