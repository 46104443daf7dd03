import contextlib
import itertools
import math
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parareal import (
    ExactLinearPropagator,
    FixedIterations,
    LinearScalarModel,
    PararealConfig,
    PwmSingle,
    SineWave,
    SplitIvp,
    Termination,
    ThetaPropagator,
    UnsupportedSignalError,
    exact_trajectory,
    initial_guess,
    iterate,
    jump_norm,
    make_config,
    parse_propagator,
    parse_signal,
    reduced_ivp,
)
from parareal import algorithm, models
from parareal.algorithm import reference_trajectory

T = 0.02


class TestJumpNorm:
    def test_zero_for_equal_vectors(self):
        assert jump_norm(-2.0, -2.0, 1.5e-5, 1.5e-5) == 0.0
        u = np.array([-2.0])
        assert jump_norm(u, u, 1.5e-5, 1.5e-5) == 0.0

    def test_unit_scaling_is_exactly_one(self):
        assert jump_norm(np.array([1.5e-5]), np.array([0.0]), 1.5e-5, 1.5e-5) == 1.0

    def test_two_channel_example(self):
        # states are scalar: a two-element state is rejected, not averaged
        with pytest.raises(ValueError, match="scalar state"):
            jump_norm(np.array([2e-5, 0.0]), np.array([0.0, 0.0]), 1.5e-5, 1.5e-5)

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_nonnegative(self, x, y):
        assert jump_norm(x, y, 1e-6, 1e-6) >= 0.0

    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
    def test_float_path_equals_one_element_arrays(self, x, y):
        with np.errstate(over="ignore"):  # both paths square to inf for |x - y| near 1e300
            want = jump_norm(np.array([x]), np.array([y]), 1.5e-5, 1.5e-5)
        assert _same_bits(jump_norm(x, y, 1.5e-5, 1.5e-5), want)

    def test_tolerance_preconditions(self):
        with pytest.raises(ValueError):
            jump_norm(np.zeros(1), np.zeros(1), 0.0, 1e-5)
        with pytest.raises(ValueError):
            jump_norm(np.zeros(1), np.zeros(1), 1e-5, -1.0)
        with pytest.raises(ValueError):
            jump_norm(0.0, 0.0, 1e-5, math.nan)


class TestInitialGuess:
    def test_exact_coarse_reproduces_exact_trajectory(self, pwm10_model):
        fine = ExactLinearPropagator(pwm10_model)
        cfg = PararealConfig(n_intervals=10, fine=fine, coarse=fine, variant="original")
        guess = initial_guess(cfg)
        ref = exact_trajectory(pwm10_model, cfg.times)
        np.testing.assert_array_equal(guess[:, 0], ref)

    def test_matches_scripted_recursion(self, pwm10_model, sine_signal):
        cfg = make_config(pwm10_model, 10, reduced_input=sine_signal, coarse="be")
        guess = initial_guess(cfg)
        # straight-line transcription of the sweep, same propagator object
        u = np.array([0.0])
        expected = [u]
        for n in range(1, 11):
            u = cfg.coarse.propagate(cfg.times[n - 1], cfg.times[n], u)
            expected.append(u)
        np.testing.assert_array_equal(guess, np.vstack(expected))

    def test_single_interval(self, pwm10_model, sine_signal):
        cfg = make_config(pwm10_model, 1, reduced_input=sine_signal, coarse="be")
        guess = initial_guess(cfg)
        step = cfg.coarse.propagate(0.0, T, np.array([0.0]))
        assert guess.shape == (2, 1)
        np.testing.assert_array_equal(guess[1], step)

    def test_grid_is_built_by_multiplication(self, pwm10_model, sine_signal):
        cfg = make_config(pwm10_model, 7, reduced_input=sine_signal, coarse="be")
        for n, t in enumerate(cfg.times):
            assert t == n * T / 7

    @pytest.mark.parametrize("n_int", [29, 57, 114])
    def test_last_sync_point_is_t_end(self, pwm10_model, n_int):
        # N*T/N rounds an ulp below T at N=29 and an ulp above it at N=57, 114
        assert n_int * T / n_int != T
        times = make_config(pwm10_model, n_int).times
        assert times[-1] == T
        assert all(t == n * T / n_int for n, t in enumerate(times[:-1]))

    @staticmethod
    def _failing_coarse_config(model, exc):
        class FailsOnInterval3(ThetaPropagator):
            def propagate(self, t0, t1, u0):
                if t0 == 2 * T / 5:  # T_2, the start of interval 3
                    raise exc
                return super().propagate(t0, t1, u0)

        return PararealConfig(n_intervals=5, fine=ExactLinearPropagator(model), coarse=FailsOnInterval3(model.ivp()))

    def test_coarse_failure_is_relabelled_with_its_interval(self, pwm10_model):
        from parareal import NonFiniteStateError

        with pytest.raises(ValueError, match="^coarse guess failed on interval 3: bad input$"):
            initial_guess(self._failing_coarse_config(pwm10_model, ValueError("bad input")))
        with pytest.raises(NonFiniteStateError, match="^coarse guess failed on interval 3: pole$") as info:
            initial_guess(self._failing_coarse_config(pwm10_model, NonFiniteStateError("pole")))
        assert (info.value.k, info.value.n) == (0, 3)

    def test_coarse_failure_not_built_from_a_message_is_raised_as_is(self, pwm10_model):
        class DomainFault(Exception):
            def __init__(self, t, why):
                super().__init__(f"t={t}: {why}")
                self.t, self.why = t, why

        fault = DomainFault(2 * T / 5, "outside the table")
        with pytest.raises(DomainFault) as info:
            initial_guess(self._failing_coarse_config(pwm10_model, fault))
        assert info.value is fault and info.value.why == "outside the table"


class TestIterate:
    def test_grid_that_rounds_past_t_end_completes(self, pwm400_model):
        # N=57: N*T/N exceeds T, so the last interval used to end outside the input's domain
        run = iterate(make_config(pwm400_model, 57, termination=FixedIterations(1)))
        assert run.times[-1] == T
        assert all(np.isfinite(u).all() for u in run.iterates + run.errors_vs_reference)

    def test_identical_propagators_collapse_in_one_iteration(self, pwm10_model):
        fine = ExactLinearPropagator(pwm10_model)
        cfg = PararealConfig(
            n_intervals=10, fine=fine, coarse=fine, variant="original",
            termination=Termination(jump_threshold=1.0),
        )
        run = iterate(cfg)
        assert run.converged
        assert run.iterations_used == 1
        ref = exact_trajectory(pwm10_model, run.times)
        np.testing.assert_allclose(run.iterates[1][:, 0], ref, atol=1e-15)
        assert run.max_jump(0) <= 1e-12

    def test_collapse_jumps_after_update(self, pwm10_model):
        fine = ExactLinearPropagator(pwm10_model)
        cfg = PararealConfig(
            n_intervals=8, fine=fine, coarse=fine, variant="original",
            termination=FixedIterations(2),
        )
        run = iterate(cfg)
        assert np.max(run.jumps[1]) <= 1e-12

    def test_finite_termination(self, pwm10_model):
        cfg = make_config(pwm10_model, 8, coarse="be", termination=FixedIterations(8))
        run = iterate(cfg)
        for k in range(9):
            for n in range(min(k, 8) + 1):
                assert run.errors_vs_reference[k][n] <= 1e-12

    def test_parallel_matches_serial_bitwise(self, pwm400_model, sine_signal):
        cfg = make_config(pwm400_model, 16, reduced_input=sine_signal, termination=FixedIterations(3))
        serial = iterate(cfg)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = iterate(cfg, executor=pool)
        for a, b in zip(serial.iterates, parallel.iterates):
            assert np.array_equal(a, b)
        for a, b in zip(serial.fine_arrivals, parallel.fine_arrivals):
            assert np.array_equal(a, b)
        for a, b in zip(serial.jumps, parallel.jumps):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_int", [1, 2, 3, 13, 320])
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_pool_blocks_match_serial_bitwise(self, pwm400_model, sine_signal, monkeypatch, workers, n_int):
        # one block per CPU, with as many CPUs as workers: N below the block
        # count, and N that the blocks do not divide
        monkeypatch.setattr(algorithm, "_cpus", lambda: workers)
        submits = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args[1:])
                return super().submit(*args, **kwargs)

        cfg = make_config(pwm400_model, n_int, reduced_input=sine_signal, termination=FixedIterations(2))
        serial = iterate(cfg)
        with CountingPool(max_workers=workers) as pool:
            pooled = iterate(cfg, executor=pool)
        blocks = min(workers, n_int)
        assert len(submits) == 2 * blocks
        assert [n for lo, hi in submits[:blocks] for n in range(lo, hi)] == list(range(1, n_int + 1))
        sizes = [hi - lo for lo, hi in submits[:blocks]]
        assert max(sizes) - min(sizes) <= 1
        for name in ("iterates", "fine_arrivals", "jumps"):
            for a, b in zip(getattr(serial, name), getattr(pooled, name), strict=True):
                assert a.tobytes() == b.tobytes(), name

    def test_two_failing_blocks_report_the_lowest_interval(self, pwm10_model, monkeypatch):
        # intervals 3 and 8 fail, in the first and second of two blocks; the
        # second block fails first, yet the error is interval 3's
        from parareal import NonFiniteStateError

        monkeypatch.setattr(algorithm, "_cpus", lambda: 2)
        times = make_config(pwm10_model, 10).times.tolist()
        later_failed = threading.Event()

        class TwoPoles(ExactLinearPropagator):
            def propagate(self, t0, t1, u0):
                if t0 == times[7]:
                    later_failed.set()
                    raise NonFiniteStateError("pole 8")
                if t0 == times[2]:
                    later_failed.wait(timeout=30)
                    raise NonFiniteStateError("pole 3")
                return super().propagate(t0, t1, u0)

        cfg = PararealConfig(
            n_intervals=10, fine=TwoPoles(pwm10_model), coarse=ThetaPropagator(pwm10_model.ivp()),
            termination=FixedIterations(2),
        )
        with ThreadPoolExecutor(2) as pool:
            with pytest.raises(NonFiniteStateError, match="^pole 3$") as info:
                iterate(cfg, pool)
        assert later_failed.is_set()
        assert (info.value.k, info.value.n) == (0, 3)

    def test_reduced_with_original_input_matches_original_bitwise(self, pwm10_model):
        term = FixedIterations(2)
        orig = iterate(make_config(pwm10_model, 10, coarse="be", termination=term))
        red_cfg = PararealConfig(
            n_intervals=10,
            fine=ExactLinearPropagator(pwm10_model),
            coarse=ThetaPropagator(reduced_ivp(pwm10_model.ivp(), pwm10_model.signal), theta=1.0),
            termination=term,
            variant="reduced",
        )
        red = iterate(red_cfg)
        for a, b in zip(orig.iterates, red.iterates):
            assert np.array_equal(a, b)

    def test_sync_anchor_invariance(self, pwm10_model, sine_signal):
        cfg = make_config(pwm10_model, 10, reduced_input=sine_signal, termination=FixedIterations(4))
        run = iterate(cfg)
        for it in run.iterates:
            assert np.array_equal(it[0], np.array([0.0]))

    def test_jump_termination(self, pwm400_model, sine_signal):
        cfg = make_config(
            pwm400_model, 20, reduced_input=sine_signal,
            termination=Termination(atol=1.5e-5, rtol=1.5e-5, jump_threshold=1.0, k_max=10),
        )
        run = iterate(cfg)
        assert run.converged
        assert run.iterations_used < 10
        assert run.max_jump(run.iterations_used - 1) < 1.0

    def test_iteration_cap_stops_an_unconverged_run(self, pwm400_model, sine_signal):
        cfg = make_config(
            pwm400_model, 20, reduced_input=sine_signal, termination=Termination(jump_threshold=1e-300, k_max=3),
        )
        run = iterate(cfg)
        assert run.iterations_used == 3 and len(run.iterates) == 4
        assert not run.converged

    def test_non_finite_state_reports_location(self, pwm10_model):
        class Exploder:
            def __init__(self, ivp):
                self.ivp = ivp

            def propagate(self, t0, t1, u0):
                if t0 >= 0.01:
                    return math.inf
                return u0

        fine = ExactLinearPropagator(pwm10_model)
        cfg = PararealConfig(
            n_intervals=10, fine=fine, coarse=Exploder(pwm10_model.ivp()),
            termination=FixedIterations(2), variant="original",
        )
        from parareal import NonFiniteStateError

        with pytest.raises(NonFiniteStateError, match="interval") as info:
            iterate(cfg)
        # the coarse guess blows up on the interval starting at T/2
        assert (info.value.k, info.value.n) == (0, 6)

    def test_non_finite_fine_arrival_carries_its_location(self, pwm10_model):
        class LateExploder(ExactLinearPropagator):
            # finite in the first sweep, inf on interval 3 of the second
            def propagate(self, t0, t1, u0):
                calls.append(t0)
                if len(calls) > 10 and t0 == 0.004:
                    return math.inf
                return super().propagate(t0, t1, u0)

        from parareal import NonFiniteStateError

        calls = []
        cfg = PararealConfig(
            n_intervals=10, fine=LateExploder(pwm10_model), coarse=ThetaPropagator(pwm10_model.ivp()),
            termination=FixedIterations(3), variant="original",
        )
        with pytest.raises(NonFiniteStateError, match="fine arrival at iteration 1, interval 3") as info:
            iterate(cfg)
        assert (info.value.k, info.value.n) == (1, 3)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_fine_sweep_pole_carries_its_location(self, threads):
        # u' = 4u + w with a step at t=0.75 on three intervals of 0.5: the
        # aligned BE fine splits interval 2 into substeps of 0.25, where its
        # implicit solve 1 - h*4 = 0 hits its pole; h = 0.5 elsewhere is finite
        from parareal import NonFiniteStateError, StepWave

        ivp = SplitIvp(decay=-4.0, gain=1.0, signal=StepWave(1.5), u0=1.0, t_end=1.5)
        cfg = PararealConfig(
            n_intervals=3, fine=ThetaPropagator(ivp, discontinuity_aligned=True), coarse=ThetaPropagator(ivp),
            termination=FixedIterations(2),
        )
        with ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool:
            with pytest.raises(NonFiniteStateError, match="step ending at t=0.75") as info:
                iterate(cfg, pool)
        assert (info.value.k, info.value.n) == (0, 2)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_correction_failure_carries_its_location(self, pwm10_model, threads):
        from parareal import NonFiniteStateError

        times = make_config(pwm10_model, 10).times.tolist()

        class PoleAfterGuess(ThetaPropagator):
            # the guess passes; the correction to iterate 1 fails on interval 3
            def propagate(self, t0, t1, u0):
                calls.append(t0)
                if len(calls) > 10 and t0 == times[2]:
                    raise NonFiniteStateError("pole")
                return super().propagate(t0, t1, u0)

        calls = []
        cfg = PararealConfig(
            n_intervals=10, fine=ExactLinearPropagator(pwm10_model), coarse=PoleAfterGuess(pwm10_model.ivp()),
            termination=FixedIterations(2),
        )
        with ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool:
            with pytest.raises(NonFiniteStateError, match="^pole$") as info:
                iterate(cfg, pool)
        assert (info.value.k, info.value.n) == (1, 3)


class TestScriptedUpdateOracle:
    def test_iterate_matches_straight_line_script_bitwise(self, pwm400_model):
        """Runs, with their per-run plans and float states, checked against a
        line-by-line transcription of the coarse-sweep initialization and the
        correction update, made of public calls on a second, freshly built
        config that never went through ``iterate``.  The input's table of
        switch-to-switch segments is built by a run on another grid first."""
        N, k_iters = 20, 2
        models._step_table.cache_clear()
        iterate(make_config(pwm400_model, 13, termination=FixedIterations(1)))
        for fine_spec, coarse_spec, reduced in itertools.product(
            ["exact", "cn:substeps=7,aligned=1"], ["be", "cn"], [None, "sine"]
        ):

            def config():
                red = None if reduced is None else parse_signal(reduced, period=T)
                return make_config(
                    pwm400_model, N, fine=fine_spec, coarse=coarse_spec, reduced_input=red,
                    termination=FixedIterations(k_iters),
                )

            cfg = config()
            run = iterate(cfg)
            assert cfg.coarse._plans is None and getattr(cfg.fine, "model", cfg.fine)._plans is None

            script = config()
            fine, coarse, times, term = script.fine, script.coarse, script.times, script.termination
            u0 = np.array([fine.ivp.u0])
            guess = [u0]
            for n in range(1, N + 1):
                guess.append(coarse.propagate(times[n - 1], times[n], guess[n - 1]))
            state = list(guess)
            iterates, arrivals_hist, jumps_hist = [guess], [], []
            for _ in range(k_iters):
                arrivals = [u0] + [
                    fine.propagate(times[n - 1], times[n], state[n - 1]) for n in range(1, N + 1)
                ]
                jumps = [0.0] + [jump_norm(arrivals[n], state[n], term.atol, term.rtol) for n in range(1, N + 1)]
                g_old = [u0] + [
                    coarse.propagate(times[n - 1], times[n], state[n - 1]) for n in range(1, N + 1)
                ]
                new = [u0]
                for n in range(1, N + 1):
                    g_new = coarse.propagate(times[n - 1], times[n], new[n - 1])
                    new.append(arrivals[n] + g_new - g_old[n])
                state = new
                iterates.append(state)
                arrivals_hist.append(arrivals)
                jumps_hist.append(jumps)

            case = (fine_spec, coarse_spec, reduced)
            for got, want in (
                (run.iterates, [np.vstack(u) for u in iterates]),
                (run.fine_arrivals, [np.vstack(u) for u in arrivals_hist]),
                (run.jumps, [np.array(j) for j in jumps_hist]),
            ):
                assert len(got) == len(want), case
                assert all(_same_bits(a, b) for a, b in zip(got, want)), case


class TestPlannedRunOracle:
    """A run's per-run plans change none of its results."""

    @pytest.mark.parametrize("fine", ["exact", "cn:substeps=7,aligned=1"])
    def test_errors_are_measured_against_exact_trajectory(self, pwm400_model, fine):
        cfg = make_config(pwm400_model, 20, fine=fine, reduced_input=SineWave(T), termination=FixedIterations(2))
        run = iterate(cfg)
        ref = exact_trajectory(pwm400_model, cfg.times)[:, None]
        want = [np.max(np.abs(it - ref), axis=1) for it in run.iterates]
        assert all(_same_bits(a, b) for a, b in zip(run.errors_vs_reference, want))

    def test_concurrent_runs_sharing_propagators(self, pwm400_model):
        # runs on two grids race to plan the same instances; a run that finds
        # another's plans, or loses its own, runs cold with the same bits
        def run(n, fine, coarse):
            cfg = PararealConfig(n_intervals=n, fine=fine, coarse=coarse, termination=FixedIterations(2))
            return iterate(cfg).iterates[2]

        def fresh():
            return ExactLinearPropagator(pwm400_model.with_signal(pwm400_model.signal)), ThetaPropagator(
                pwm400_model.ivp(), theta=0.5
            )

        fine, coarse = fresh()
        grids = [7, 13] * 4
        want = {n: run(n, *fresh()) for n in set(grids)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda n: run(n, fine, coarse), grids, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(_same_bits(g, want[n]) for g, n in zip(got, grids))
        assert coarse._plans is None and fine.model._plans is None

    def test_plans_are_dropped_when_a_run_fails(self):
        model = _model("diff:sine-sine3:phase=2")
        cfg = make_config(model, 5, termination=FixedIterations(1))
        with pytest.raises(UnsupportedSignalError, match="constant-plus-sinusoid"):
            iterate(cfg)
        assert cfg.coarse._plans is None and cfg.fine.model._plans is None


class TestConfigValidation:
    def test_variant_consistency_enforced(self, pwm10_model, sine_signal):
        fine = ExactLinearPropagator(pwm10_model)
        coarse = ThetaPropagator(reduced_ivp(pwm10_model.ivp(), sine_signal), theta=1.0)
        with pytest.raises(ValueError):
            PararealConfig(n_intervals=4, fine=fine, coarse=coarse, variant="original")

    @pytest.mark.parametrize("variant", ["original", "reduced"])
    def test_coarse_on_another_circuit_is_rejected(self, pwm10_model, sine_signal, variant):
        other = LinearScalarModel(R_res=2 * pwm10_model.R_res, L_ind=pwm10_model.L_ind, signal=pwm10_model.signal)
        coarse_signal = other.signal if variant == "original" else sine_signal
        coarse = ThetaPropagator(reduced_ivp(other.ivp(), coarse_signal), theta=1.0)
        with pytest.raises(ValueError, match="different problems"):
            PararealConfig(n_intervals=4, fine=ExactLinearPropagator(pwm10_model), coarse=coarse, variant=variant)

    def test_bad_interval_count(self, pwm10_model):
        fine = ExactLinearPropagator(pwm10_model)
        with pytest.raises(ValueError):
            PararealConfig(n_intervals=0, fine=fine, coarse=fine)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_bad_iteration_cap(self, k_max):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            Termination(k_max=k_max)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_jump_threshold(self, threshold):
        with pytest.raises(ValueError, match="jump_threshold must be a positive finite number"):
            Termination(jump_threshold=threshold)

    @pytest.mark.parametrize("atol, rtol", [(0.0, 1e-5), (-1e-5, 1e-5), (math.nan, 1e-5), (1e-5, -1e-5), (1e-5, math.nan)])
    @pytest.mark.parametrize(
        "make", [Termination, lambda atol, rtol: FixedIterations(2, atol=atol, rtol=rtol)],
        ids=["Termination", "FixedIterations"],
    )
    def test_bad_tolerances_fail_at_construction(self, make, atol, rtol):
        with pytest.raises(ValueError, match="need atol > 0 and rtol >= 0"):
            make(atol=atol, rtol=rtol)


REFERENCE_INPUTS = ("pwm:m=400", "pwm3:m=400,phase=1", "step", "sine")


def _model(input_spec):
    return LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(input_spec, period=T))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReferenceTrajectory:
    """The reference is the closed form wherever one exists, else a 10x-refined fine solve."""

    @pytest.mark.parametrize("input_spec", REFERENCE_INPUTS)
    @pytest.mark.parametrize("n", [5, 13, 320])
    def test_exact_fine_configs_equal_exact_trajectory(self, input_spec, n):
        model = _model(input_spec)
        want = exact_trajectory(model, make_config(model, n).times)
        for cfg in (make_config(model, n), make_config(model, n, reduced_input=SineWave(T))):
            ref = reference_trajectory(cfg)
            assert _same_bits(ref[:, 0], want)

    @pytest.mark.parametrize("input_spec", REFERENCE_INPUTS)
    @pytest.mark.parametrize("n", [5, 13])
    def test_theta_fine_gets_the_closed_form(self, input_spec, n):
        model = _model(input_spec)
        fine = parse_propagator("cn:substeps=7,aligned=1", model.ivp(), model)
        cfg = PararealConfig(n_intervals=n, fine=fine, coarse=ThetaPropagator(fine.ivp), variant="original")
        assert _same_bits(reference_trajectory(cfg)[:, 0], exact_trajectory(model, cfg.times))

    @staticmethod
    def _refined_loop(fine, times):
        refined = ThetaPropagator(
            fine.ivp, theta=fine.theta, substeps=10 * fine.substeps,
            discontinuity_aligned=fine.discontinuity_aligned,
        )
        out = [fine.ivp.u0]
        for n in range(1, len(times)):
            out.append(refined.propagate(times[n - 1], times[n], out[-1]))
        return np.vstack(out)

    def _assert_falls_back(self, fine, n=5):
        cfg = PararealConfig(n_intervals=n, fine=fine, coarse=ThetaPropagator(fine.ivp), variant="original")
        ref = reference_trajectory(cfg)
        assert _same_bits(ref, self._refined_loop(fine, cfg.times))
        assert np.all(np.isfinite(ref))

    def test_zero_decay_rate_falls_back(self):
        # a = 0 has no decaying closed form (the segment step divides by a)
        ivp = SplitIvp(decay=-0.0, gain=0.01, signal=PwmSingle(m=400, period=T), u0=0.0, t_end=T)
        self._assert_falls_back(ThetaPropagator(ivp, theta=0.5, substeps=7, discontinuity_aligned=True))

    def test_input_without_closed_form_falls_back(self):
        model = _model("diff:sine-sine3:phase=2")
        self._assert_falls_back(parse_propagator("cn:substeps=7,aligned=1", model.ivp(), model))


class TestPickling:
    """Configs and propagators are plain records, so they cross process boundaries."""

    def test_config_round_trip_iterates_bitwise(self):
        model = _model("pwm:m=400")
        cfg = make_config(
            model, 20, fine="cn:substeps=50,aligned=1", reduced_input=SineWave(T), termination=FixedIterations(2)
        )
        clone = pickle.loads(pickle.dumps(cfg))
        want, got = iterate(cfg), iterate(clone)
        assert len(got.iterates) == len(want.iterates) == 3
        for a, b in zip(want.iterates, got.iterates):
            assert _same_bits(a, b)

    def test_propagators_round_trip(self, pwm10_model):
        for prop in (
            ThetaPropagator(pwm10_model.ivp(), theta=0.5, substeps=7, discontinuity_aligned=True),
            ExactLinearPropagator(pwm10_model),
        ):
            clone = pickle.loads(pickle.dumps(prop))
            assert type(clone) is type(prop) and clone.ivp == prop.ivp
            assert _same_bits(clone.propagate(0.001, 0.013, 0.25), prop.propagate(0.001, 0.013, 0.25))
