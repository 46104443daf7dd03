"""Acceptance gate: pinned convergence-order targets and property checks.

Each criterion prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (run with
``pytest -s`` to see them all).  The order targets are asserted exactly as
pinned, against the default max-over-sync-points error metric of the study
harness.  Several order targets are not attainable under that metric for this
circuit (its interval-to-interval damping is far too weak for the error at
the final sync points to track the per-interval rates; the measured
asymptotics and the full analysis are recorded in the project notes); those
criteria fail honestly rather than being loosened.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from parareal.analysis import DEFAULT_N_LIST
from parareal import (
    ExactLinearPropagator,
    FixedIterations,
    LinearScalarModel,
    PararealConfig,
    PwmSingle,
    SineWave,
    StepWave,
    StudySpec,
    Termination,
    ThetaPropagator,
    defect_scaling_study,
    exact_linear_propagate,
    iterate,
    jump_norm,
    local_order_probe,
    make_config,
    run_study,
)

T = 0.02
MODEL = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=PwmSingle(m=400, period=T))
SINE = SineWave(T)
STEP = StepWave(T)
BIG_N = (40, 80, 160, 320)


def record(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def study_order(variant, scheme, k, n_list, reduced=None, fit_min_n=None) -> float:
    spec = StudySpec(
        model=MODEL, variant=variant, coarse_scheme=scheme, reduced_input=reduced,
        k=k, n_list=n_list, fit_min_n=fit_min_n,
    )
    return run_study(spec).fitted_order


# -- criterion 1: classic algorithm, BE coarse ------------------------------


def test_c1_original_be_k1_order():
    order = study_order("original", "be", 1, BIG_N)
    ok = abs(order - 4.0) <= 0.5
    record("1a original-BE k=1 order 4.0+-0.5", ok, f"fitted order {order:.3f} over N={BIG_N}")


def test_c1_original_be_k2_order():
    order = study_order("original", "be", 2, BIG_N)
    ok = not math.isnan(order) and abs(order - 6.0) <= 0.7
    record("1b original-BE k=2 order 6.0+-0.7", ok, f"fitted order {order:.3f} over N={BIG_N}")


def test_c1_small_n_order_reduction():
    spec = StudySpec(model=MODEL, variant="original", coarse_scheme="be", k=1, n_list=(5, 10))
    study = run_study(spec)
    e5, e10 = (p.err_max for p in study.results)
    order = math.log(e5 / e10) / math.log(2.0)
    ok = order < 3.0
    record("1c original-BE k=1 small-N order < 3", ok, f"two-point order {order:.3f} over N=(5,10)")


# -- criterion 2: classic algorithm, CN coarse ------------------------------


def test_c2_original_cn_k1_order():
    order = study_order("original", "cn", 1, BIG_N)
    ok = abs(order - 5.0) <= 0.5
    record("2 original-CN k=1 order 5.0+-0.5", ok, f"fitted order {order:.3f} over N={BIG_N}")


# -- criterion 3: reduced-input coarse, BE ----------------------------------


@pytest.mark.parametrize(
    "case,reduced,k,target,tol",
    [
        ("3a reduced-BE step k=1 order 3.0+-0.4", STEP, 1, 3.0, 0.4),
        ("3b reduced-BE step k=2 order 5.0+-0.6", STEP, 2, 5.0, 0.6),
        ("3c reduced-BE sine k=1 order 4.0+-0.4", SINE, 1, 4.0, 0.4),
        ("3d reduced-BE sine k=2 order 6.0+-0.7", SINE, 2, 6.0, 0.7),
    ],
)
def test_c3_reduced_be_orders(case, reduced, k, target, tol):
    order = study_order("reduced", "be", k, DEFAULT_N_LIST, reduced=reduced)
    ok = not math.isnan(order) and abs(order - target) <= tol
    record(case, ok, f"fitted order {order:.3f}")


# -- criterion 4: reduced-input coarse, CN ----------------------------------


@pytest.mark.parametrize(
    "case,reduced,target,tol",
    [
        ("4a reduced-CN step k=1 order 4.0+-0.4", STEP, 4.0, 0.4),
        ("4b reduced-CN sine k=1 order 6.0+-0.7", SINE, 6.0, 0.7),
    ],
)
def test_c4_reduced_cn_orders(case, reduced, target, tol):
    order = study_order("reduced", "cn", 1, DEFAULT_N_LIST, reduced=reduced)
    ok = not math.isnan(order) and abs(order - target) <= tol
    record(case, ok, f"fitted order {order:.3f}")


# -- criterion 5: one-interval defect scaling --------------------------------


def test_c5_defect_scaling_slope():
    study = defect_scaling_study(MODEL, SINE, dt_ladder=[T / 2**j for j in range(6, 13)])
    ok = 0.9 <= study.slope <= 1.1
    record("5 defect slope in [0.9, 1.1]", ok,
           f"fitted slope {study.slope:.3f} for the sine surrogate over dT=T/2^(6..12)")


# -- criterion 6: property suite ---------------------------------------------


def test_c6_property_suite():
    pwm10 = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=PwmSingle(m=10, period=T))

    # finite termination: iterate k renders sync points n <= k exact
    cfg = PararealConfig(
        n_intervals=8,
        fine=ExactLinearPropagator(pwm10),
        coarse=ThetaPropagator(pwm10.ivp(), theta=1.0),
        termination=FixedIterations(8),
        variant="original",
    )
    run = iterate(cfg)
    fin_ok = all(
        run.errors_vs_reference[k][n] <= 1e-12 for k in range(9) for n in range(min(k, 8) + 1)
    )

    # identical coarse and fine collapse after one update
    fine = ExactLinearPropagator(pwm10)
    cfg_gf = PararealConfig(
        n_intervals=8, fine=fine, coarse=fine,
        termination=FixedIterations(2), variant="original",
    )
    run_gf = iterate(cfg_gf)
    gf_ok = float(np.max(run_gf.jumps[1])) <= 1e-12

    # bitwise determinism of the concurrent fine sweep
    cfg_par = make_config(MODEL, 16, reduced_input=SINE, termination=FixedIterations(2))
    serial = iterate(cfg_par)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = iterate(cfg_par, executor=pool)
    par_ok = all(np.array_equal(a, b) for a, b in zip(serial.iterates, parallel.iterates))

    # semigroup property of the exact propagator
    rng = np.random.default_rng(21)
    semi_ok = True
    for _ in range(10):
        tm = float(rng.uniform(0.002, 0.018))
        phi0 = float(rng.uniform(-1, 1))
        direct = exact_linear_propagate(MODEL, 0.0, T, phi0)
        path = exact_linear_propagate(MODEL, tm, T, exact_linear_propagate(MODEL, 0.0, tm, phi0))
        semi_ok &= abs(direct - path) <= 1e-12

    # unit scaling of the jump norm
    jn_ok = jump_norm(np.array([1.5e-5]), np.array([0.0]), 1.5e-5, 1.5e-5) == 1.0

    # theta-method local order probes on a smooth input
    sine_model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=SINE)
    exact = ExactLinearPropagator(sine_model)
    be = local_order_probe(
        ThetaPropagator(sine_model.ivp(), theta=1.0), exact,
        t_start=0.003, u_start=np.array([0.02]), dt_max=T / 32,
    )
    cn = local_order_probe(
        ThetaPropagator(sine_model.ivp(), theta=0.5), exact,
        t_start=0.003, u_start=np.array([0.02]), dt_max=T / 32,
    )
    probe_ok = abs(be.slope - 2.0) <= 0.2 and abs(cn.slope - 3.0) <= 0.2

    ok = fin_ok and gf_ok and par_ok and semi_ok and jn_ok and probe_ok
    record(
        "6 property suite", ok,
        f"finite-termination={fin_ok} collapse={gf_ok} determinism={par_ok} "
        f"semigroup={semi_ok} jump-unit={jn_ok} probes(BE={be.slope:.2f},CN={cn.slope:.2f})={probe_ok}",
    )


# -- criterion 7: independent straight-line oracle ----------------------------


def test_c7_scripted_update_bitwise():
    N, k_iters = 20, 1
    cfg = make_config(MODEL, N, reduced_input=SINE, termination=FixedIterations(k_iters))
    run = iterate(cfg)

    fine, coarse, times = cfg.fine, cfg.coarse, cfg.times
    u0 = np.array([0.0])
    state = [u0]
    for n in range(1, N + 1):
        state.append(coarse.propagate(times[n - 1], times[n], state[n - 1]))
    for _ in range(k_iters):
        arrivals = [u0] + [fine.propagate(times[n - 1], times[n], state[n - 1]) for n in range(1, N + 1)]
        g_old = [u0] + [coarse.propagate(times[n - 1], times[n], state[n - 1]) for n in range(1, N + 1)]
        new = [u0]
        for n in range(1, N + 1):
            g_new = coarse.propagate(times[n - 1], times[n], new[n - 1])
            new.append(arrivals[n] + g_new - g_old[n])
        state = new

    ok = bool(np.array_equal(run.iterates[k_iters], np.vstack(state)))
    record("7 scripted-update bitwise equivalence", ok,
           f"max abs deviation {float(np.max(np.abs(run.iterates[k_iters] - np.vstack(state)))):.1e}")
