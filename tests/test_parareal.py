import contextlib
import dataclasses
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
    Difference,
    ExactLinearPropagator,
    FixedIterations,
    LinearScalarModel,
    PararealConfig,
    PararealRun,
    PwmSingle,
    SineWave,
    SplitIvp,
    StudySpec,
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
)
from parareal import algorithm, models
from parareal.algorithm import reference_trajectory
from parareal.cli import PRESETS

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
        want = jump_norm(np.array([x]), np.array([y]), 1.5e-5, 1.5e-5)
        assert _same_bits(jump_norm(x, y, 1.5e-5, 1.5e-5), want)

    @pytest.mark.parametrize("u", [1e160, -1e160, 1e300, 1e-300, 5e-324])
    def test_no_overflow_or_underflow(self, u):
        # the scaled distance itself: its square overflows to inf, or
        # underflows to 0, where the distance does not
        want = abs(u) / 1.5e-5
        assert 0.0 < want < math.inf
        assert jump_norm(u, 0.0, 1.5e-5, 1.5e-5) == want
        assert jump_norm(np.array([u]), np.array([0.0]), 1.5e-5, 1.5e-5) == want

    @given(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150))
    def test_equals_the_root_of_the_square_where_it_is_representable(self, x, y):
        scaled = abs(x - y) / (1.5e-5 + 1.5e-5 * abs(y))
        if 1e-150 < scaled < 1e150:
            assert _same_bits(jump_norm(x, y, 1.5e-5, 1.5e-5), math.sqrt(scaled * scaled))

    def test_tolerance_preconditions(self):
        with pytest.raises(ValueError):
            jump_norm(np.zeros(1), np.zeros(1), 0.0, 1e-5)
        with pytest.raises(ValueError):
            jump_norm(np.zeros(1), np.zeros(1), 1e-5, -1.0)
        with pytest.raises(ValueError, match=r"need finite atol > 0 and finite rtol >= 0, got atol=1e-05, rtol=nan"):
            jump_norm(0.0, 0.0, 1e-5, math.nan)
        with pytest.raises(ValueError, match=r"got atol=inf, rtol=1e-05"):
            jump_norm(0.0, 0.0, math.inf, 1e-5)
        with pytest.raises(ValueError, match=r"got atol=1e-05, rtol=inf"):
            jump_norm(0.0, 0.0, 1e-5, math.inf)


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

    def test_grid_bits_over_many_horizons(self):
        # the grid is one array expression with the bits of ``n * t_end / N``
        for t_end in (0.02, 1.0, 3.7, 1e-3, 730.0):
            for n_int in range(1, 1001):
                got = algorithm._sync_times(t_end, n_int)
                want = [n * t_end / n_int for n in range(n_int)] + [t_end]
                assert all(type(t) is float for t in got)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (t_end, n_int)

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
            termination=Termination(),
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

    def test_a_nan_jump_is_not_below_the_threshold(self, pwm10_model):
        # a fine arrival of 1e308 off a guess of -1e308: with rtol = 10 the
        # distance and the tolerance both overflow, so the first sweep's jumps
        # are inf/inf = NaN, which ``max`` would read as 0; the correction
        # (1e308 - 1e308) + 1e308 matches the next arrivals, so the second
        # sweep's jumps are 0
        assert math.isnan(jump_norm(1e308, -1e308, 1.0, 10.0))

        class FarFine(ThetaPropagator):
            def propagate(self, t0, t1, u):
                return 1e308

        class FarCoarse(ThetaPropagator):
            def propagate(self, t0, t1, u):
                return -1e308

        fine, coarse = FarFine(pwm10_model.ivp()), FarCoarse(pwm10_model.ivp())
        for term, k, converged in ((Termination(atol=1.0, rtol=10.0, k_max=3), 2, True),
                                   (FixedIterations(1, atol=1.0, rtol=10.0), 1, False)):
            run = iterate(PararealConfig(n_intervals=5, fine=fine, coarse=coarse, termination=term))
            assert (run.iterations_used, run.converged) == (k, converged)
            assert run.jumps[0][0] == 0.0 and np.isnan(run.jumps[0][1:]).all()

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
    def test_pool_gets_no_work_and_matches_serial_bitwise(self, pwm400_model, sine_signal, workers, n_int):
        # whatever the pool size and N, including N below it and N it does
        # not divide, the fine sweep runs in the calling thread
        submits = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args[1:])
                return super().submit(*args, **kwargs)

        cfg = make_config(pwm400_model, n_int, reduced_input=sine_signal, termination=FixedIterations(2))
        serial = iterate(cfg)
        with CountingPool(max_workers=workers) as pool:
            pooled = iterate(cfg, executor=pool)
        assert submits == []
        for name in ("iterates", "fine_arrivals", "jumps"):
            for a, b in zip(getattr(serial, name), getattr(pooled, name), strict=True):
                assert a.tobytes() == b.tobytes(), name

    def test_two_failing_intervals_report_the_lowest(self, pwm10_model):
        # intervals 3 and 8 would fail; the sweep stops at 3 and never calls 8
        from parareal import NonFiniteStateError

        times = make_config(pwm10_model, 10).times.tolist()
        calls = []

        class TwoPoles(ExactLinearPropagator):
            def propagate(self, t0, t1, u0):
                calls.append(t0)
                if t0 in (times[2], times[7]):
                    raise NonFiniteStateError(f"pole {times.index(t0) + 1}")
                return super().propagate(t0, t1, u0)

        cfg = PararealConfig(
            n_intervals=10, fine=TwoPoles(pwm10_model), coarse=ThetaPropagator(pwm10_model.ivp()),
            termination=FixedIterations(2),
        )
        with ThreadPoolExecutor(2) as pool:
            with pytest.raises(NonFiniteStateError, match="^pole 3$") as info:
                iterate(cfg, pool)
        assert times[7] not in calls
        assert (info.value.k, info.value.n) == (0, 3)

    def test_a_non_finite_arrival_before_a_raising_interval_is_reported(self, pwm10_model):
        # interval 2 returns NaN and interval 4 raises: the sweep stops at 2
        from parareal import NonFiniteStateError

        times = make_config(pwm10_model, 10).times.tolist()
        calls = []

        class NanThenPole(ExactLinearPropagator):
            def propagate(self, t0, t1, u0):
                calls.append(t0)
                if t0 == times[1]:
                    return math.nan
                if t0 == times[3]:
                    raise NonFiniteStateError("pole 4")
                return super().propagate(t0, t1, u0)

        cfg = PararealConfig(
            n_intervals=10, fine=NanThenPole(pwm10_model), coarse=ThetaPropagator(pwm10_model.ivp()),
            termination=FixedIterations(2),
        )
        with pytest.raises(NonFiniteStateError, match="^non-finite fine arrival at iteration 0, interval 2$") as info:
            iterate(cfg)
        assert times[3] not in calls
        assert (info.value.k, info.value.n) == (0, 2)

    def test_the_fine_sweep_runs_in_the_calling_thread(self, pwm400_model):
        # nothing goes to the pool, every fine call runs in the caller, and
        # the bits are serial
        fine_threads = set()

        class Recording(ThetaPropagator):
            def propagate(self, t0, t1, u):
                fine_threads.add(threading.get_ident())
                return super().propagate(t0, t1, u)

        class CountingPool(ThreadPoolExecutor):
            submits = 0

            def submit(self, *args, **kwargs):
                CountingPool.submits += 1
                return super().submit(*args, **kwargs)

        fine = Recording(pwm400_model.ivp(), theta=0.5, substeps=20, discontinuity_aligned=True)
        cfg = PararealConfig(n_intervals=8, fine=fine, coarse=ThetaPropagator(pwm400_model.ivp()),
                             termination=FixedIterations(2))
        serial = iterate(cfg)
        with CountingPool(max_workers=4) as pool:
            pooled = iterate(cfg, executor=pool)
        assert CountingPool.submits == 0
        assert fine_threads == {threading.get_ident()}
        for name in ("iterates", "fine_arrivals", "jumps"):
            for a, b in zip(getattr(serial, name), getattr(pooled, name), strict=True):
                assert a.tobytes() == b.tobytes(), name

    def test_reduced_with_original_input_matches_original_bitwise(self, pwm10_model):
        term = FixedIterations(2)
        orig = iterate(make_config(pwm10_model, 10, coarse="be", termination=term))
        red_cfg = PararealConfig(
            n_intervals=10,
            fine=ExactLinearPropagator(pwm10_model),
            coarse=ThetaPropagator(dataclasses.replace(pwm10_model.ivp(), signal=pwm10_model.signal), theta=1.0),
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
            termination=Termination(atol=1.5e-5, rtol=1.5e-5, k_max=10),
        )
        run = iterate(cfg)
        assert run.converged
        assert run.iterations_used < 10
        assert run.max_jump(run.iterations_used - 1) < 1.0

    def test_iteration_cap_stops_an_unconverged_run(self, pwm400_model, sine_signal):
        cfg = make_config(
            pwm400_model, 20, reduced_input=sine_signal, termination=Termination(atol=1e-300, rtol=0.0, k_max=3),
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
    def test_fine_sweep_overflow_carries_its_location(self, threads):
        # u' = -1e10 u + w with a step at t=0.75 on three intervals of 0.5 and
        # a coarse guess of 1e300 past u0 = 1: the aligned explicit fine steps
        # interval 1 in one step of 0.5 from u0, finite, and splits interval 2
        # at 0.75, where its first step from 1e300 overflows
        from parareal import NonFiniteStateError, StepWave

        class FarGuess(ThetaPropagator):
            def propagate(self, t0, t1, u):
                return 1e300

        ivp = SplitIvp(decay=1e10, gain=1.0, signal=StepWave(1.5), u0=1.0)
        cfg = PararealConfig(
            n_intervals=3, fine=ThetaPropagator(ivp, theta=0.0, discontinuity_aligned=True),
            coarse=FarGuess(ivp), termination=FixedIterations(2),
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


    @pytest.mark.parametrize("threads", [None, 2])
    def test_correction_overflow_carries_its_location(self, pwm10_model, threads):
        # finite fine and coarse values on interval 3 whose corrected sum
        # f + g_new - g_old overflows: 1e308 + 1e308 is inf
        from parareal import NonFiniteStateError

        times = make_config(pwm10_model, 10).times.tolist()

        class FarFine(ExactLinearPropagator):
            def propagate(self, t0, t1, u):
                return 1e308 if t0 == times[2] else super().propagate(t0, t1, u)

        class FarCoarse(ThetaPropagator):
            # the guess passes; the correction to iterate 1 gets 1e308 on interval 3
            def propagate(self, t0, t1, u):
                calls.append(t0)
                return 1e308 if len(calls) > 10 and t0 == times[2] else super().propagate(t0, t1, u)

        calls = []

        cfg = PararealConfig(
            n_intervals=10, fine=FarFine(pwm10_model), coarse=FarCoarse(pwm10_model.ivp()),
            termination=FixedIterations(2),
        )
        with ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool:
            with pytest.raises(NonFiniteStateError, match="^non-finite state at iteration 1, interval 3$") as info:
                iterate(cfg, pool)
        assert (info.value.k, info.value.n) == (1, 3)


def _scripted_run(cfg):
    """A line-by-line transcription of the coarse-sweep initialization and the
    correction updates, made of cold public ``propagate`` calls, stopping as
    ``cfg.termination`` asks: every field of the ``PararealRun`` that
    ``iterate`` reports, each array built on its own."""
    fine, coarse, times, term = cfg.fine, cfg.coarse, cfg.times, cfg.termination
    N = cfg.n_intervals
    fixed = isinstance(term, FixedIterations)
    u0 = np.array([fine.ivp.u0])
    guess = [u0]
    for n in range(1, N + 1):
        guess.append(coarse.propagate(times[n - 1], times[n], guess[n - 1]))
    state = list(guess)
    iterates, arrivals_hist, jumps_hist = [guess], [], []
    converged = False
    for _ in range(term.k if fixed else term.k_max):
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
        if not fixed and np.max(jumps) < 1.0:
            converged = True
            break
    if fixed:
        converged = bool(np.max(jumps_hist[-1]) < 1.0)
    iterates = [np.vstack(u) for u in iterates]
    ref = models._trajectory(fine.ivp.decay, fine.ivp.gain, fine.ivp.signal, times, fine.ivp.u0)[:, None]
    return PararealRun(
        times=np.array(times),
        iterates=iterates,
        fine_arrivals=[np.vstack(u) for u in arrivals_hist],
        jumps=[np.array(j) for j in jumps_hist],
        errors_vs_reference=[np.max(np.abs(it - ref), axis=1) for it in iterates],
        iterations_used=len(jumps_hist),
        converged=converged,
    )


def _assert_run_equals_script(run, script, case):
    """Every field of ``run`` equals the script's: each array's shape, dtype
    and bits, each count and flag by type and value."""
    for field in dataclasses.fields(PararealRun):
        got, want = getattr(run, field.name), getattr(script, field.name)
        if isinstance(want, (bool, int)):
            assert (type(got), got) == (type(want), want), (case, field.name)
            continue
        if isinstance(want, np.ndarray):
            got, want = [got], [want]
        assert type(got) is list and len(got) == len(want), (case, field.name)
        for a, b in zip(got, want):
            assert type(a) is np.ndarray and (a.shape, a.dtype) == (b.shape, b.dtype), (case, field.name)
            assert a.tobytes() == b.tobytes(), (case, field.name)


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
            _assert_run_equals_script(run, _scripted_run(config()), (fine_spec, coarse_spec, reduced))

    @pytest.mark.parametrize("stop", ["fixed", "termination"])
    @pytest.mark.parametrize("N", [5, 320])
    def test_every_preset_series_matches_the_script_bitwise(self, pwm400_model, N, stop):
        """Every series of the CLI presets as a study point makes it, at the
        smallest and the largest N of a study, and the same config stopped by
        the jump criterion instead, which takes the converged path.  At N = 5
        every interval holds about 160 switches, so its exact end segments
        take their forms by table index; at N = 320 most intervals hold none
        and take the form at their midpoint, and every coarse plan is one
        substep.  No two arrays of a run share memory."""
        series = {(e["variant"], e["scheme"], e["k"], e.get("reduced")) for e in itertools.chain(*PRESETS.values())}
        assert len(series) == 9
        for variant, scheme, k, reduced in sorted(series, key=str):

            def config():
                red = None if reduced is None else parse_signal(reduced, period=T)
                spec = StudySpec(model=pwm400_model, variant=variant, coarse_scheme=scheme, reduced_input=red, k=k)
                cfg = spec.config(N)
                return cfg if stop == "fixed" else dataclasses.replace(cfg, termination=Termination())

            run = iterate(config())
            _assert_run_equals_script(run, _scripted_run(config()), (variant, scheme, k, reduced))
            arrays = [run.times, *run.iterates, *run.fine_arrivals, *run.jumps, *run.errors_vs_reference]
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
            if stop == "termination":
                assert run.converged and run.iterations_used < Termination().k_max, (variant, scheme, k, reduced)


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

    @pytest.mark.parametrize("fine, coarse", [
        ("exact", "be"), ("be", "cn"), ("cn:substeps=7,aligned=1", "be:substeps=4"), ("be:aligned=1", "cn:aligned=1"),
    ])
    def test_a_run_plans_its_one_step_propagators(self, pwm400_model, monkeypatch, fine, coarse):
        # one rule for both roles: an exact or a one-step theta propagator is
        # planned for the run, a multi-step theta one runs cold; either way
        # the run has the bits of the script of cold calls
        def config():
            return make_config(pwm400_model, 10, fine=fine, coarse=coarse, termination=FixedIterations(2))

        want = _scripted_run(config())
        cfg = config()
        seen = {}
        for cls in (ThetaPropagator, ExactLinearPropagator):

            def spy(self, t0, t1, u, cold=cls.propagate):
                plans = getattr(self, "model", self)._plans
                seen.setdefault(id(self), set()).add(plans and len(plans))
                return cold(self, t0, t1, u)

            monkeypatch.setattr(cls, "propagate", spy)
        run = iterate(cfg)
        monkeypatch.undo()
        for prop in (cfg.fine, cfg.coarse):
            one_step = not isinstance(prop, ThetaPropagator) or (prop.substeps, prop.discontinuity_aligned) == (1, False)
            assert seen[id(prop)] == {10 if one_step else None}, prop
        _assert_run_equals_script(run, want, (fine, coarse))

    def test_plans_are_dropped_when_a_run_fails(self):
        # sinusoids of different frequencies: no closed form on any interval
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Difference(SineWave(T), SineWave(2 * T)))
        cfg = make_config(model, 5, termination=FixedIterations(1))
        with pytest.raises(UnsupportedSignalError, match="constant-plus-sinusoid"):
            iterate(cfg)
        assert cfg.coarse._plans is None and cfg.fine.model._plans is None


class TestConfigValidation:
    def test_variant_consistency_enforced(self, pwm10_model, sine_signal):
        fine = ExactLinearPropagator(pwm10_model)
        coarse = ThetaPropagator(dataclasses.replace(pwm10_model.ivp(), signal=sine_signal), theta=1.0)
        with pytest.raises(ValueError):
            PararealConfig(n_intervals=4, fine=fine, coarse=coarse, variant="original")

    @pytest.mark.parametrize("variant", ["original", "reduced"])
    def test_coarse_on_another_circuit_is_rejected(self, pwm10_model, sine_signal, variant):
        other = LinearScalarModel(R_res=2 * pwm10_model.R_res, L_ind=pwm10_model.L_ind, signal=pwm10_model.signal)
        coarse_signal = other.signal if variant == "original" else sine_signal
        coarse = ThetaPropagator(dataclasses.replace(other.ivp(), signal=coarse_signal), theta=1.0)
        with pytest.raises(ValueError, match="different problems"):
            PararealConfig(n_intervals=4, fine=ExactLinearPropagator(pwm10_model), coarse=coarse, variant=variant)

    @pytest.mark.parametrize("period", [0.01, 0.04], ids=["shorter", "longer"])
    def test_reduced_input_on_another_horizon_is_rejected(self, period):
        # the coarse problem would stop short of T, or run past it, on the same sync grid
        model = models.parse_model("rl:R=0.01,L=0.001,input=pwm:m=400")
        with pytest.raises(ValueError, match="different problems"):
            make_config(model, 8, reduced_input=SineWave(period), termination=FixedIterations(1))

    def test_bad_interval_count(self, pwm10_model):
        fine = ExactLinearPropagator(pwm10_model)
        with pytest.raises(ValueError):
            PararealConfig(n_intervals=0, fine=fine, coarse=fine)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_bad_iteration_cap(self, k_max):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            Termination(k_max=k_max)

    def test_the_tolerances_alone_set_the_jump_scale(self):
        # no threshold field: a run stops once every jump is below 1
        assert [f.name for f in dataclasses.fields(Termination)] == ["atol", "rtol", "k_max"]
        with pytest.raises(TypeError, match="jump_threshold"):
            Termination(jump_threshold=1.0)

    @pytest.mark.parametrize("check, message", [
        (lambda model: FixedIterations(k=0), "^k must be >= 1$"),
        (lambda model: PararealConfig(n_intervals=4, fine=ExactLinearPropagator(model),
                                      coarse=ExactLinearPropagator(model), variant="classic"),
         "^unknown variant 'classic'$"),
        (lambda model: iterate(make_config(model, 4, termination=FixedIterations(1))).error(1, "mean"),
         "^unknown metric 'mean'$"),
    ], ids=["zero-fixed-iterations", "unknown-variant", "unknown-error-metric"])
    def test_input_checks(self, pwm10_model, check, message):
        with pytest.raises(ValueError, match=message) as info:
            check(pwm10_model)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("atol, rtol", [(0.0, 1e-5), (-1e-5, 1e-5), (math.nan, 1e-5), (math.inf, 1e-5),
                                            (1e-5, -1e-5), (1e-5, math.nan), (1e-5, math.inf)])
    @pytest.mark.parametrize(
        "make", [Termination, lambda atol, rtol: FixedIterations(2, atol=atol, rtol=rtol)],
        ids=["Termination", "FixedIterations"],
    )
    def test_bad_tolerances_fail_at_construction(self, make, atol, rtol):
        with pytest.raises(ValueError, match="need finite atol > 0 and finite rtol >= 0"):
            make(atol=atol, rtol=rtol)


REFERENCE_INPUTS = ("pwm:m=400", "pwm3:m=400,phase=1", "step", "sine")


def _model(input_spec):
    return LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(input_spec, period=T))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReferenceTrajectory:
    """The reference is the closed form, whatever the fine propagator; a problem without one fails."""

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

    def test_zero_decay_rate_raises(self):
        # a = 0 has no decaying closed form (the segment step divides by a), so
        # no problem, and no run with a reference, is built on it
        with pytest.raises(ValueError, match=r"decay rate > 0, got -0\.0"):
            SplitIvp(decay=-0.0, gain=0.01, signal=PwmSingle(m=400, period=T), u0=0.0)

    def test_input_without_closed_form_raises(self):
        # the run itself completes on a theta fine propagator; its reference fails
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Difference(SineWave(T), SineWave(2 * T)))
        fine = parse_propagator("cn:substeps=7,aligned=1", model.ivp(), model)
        cfg = PararealConfig(n_intervals=5, fine=fine, coarse=ThetaPropagator(fine.ivp), variant="original",
                             termination=FixedIterations(1))
        for compute in (reference_trajectory, iterate):
            with pytest.raises(UnsupportedSignalError, match="constant-plus-sinusoid"):
                compute(cfg)

    def test_same_frequency_sinusoids_run_exact(self):
        # an exact fine run on a difference of two phases of one sinusoid
        # against one aligned Crank-Nicolson solve over [0, T]
        model = _model("diff:sine-sine3:phase=2")
        run = iterate(make_config(model, 20, termination=FixedIterations(2)))
        cn = parse_propagator("cn:substeps=20000,aligned=1", model.ivp(), model).propagate(0.0, T, model.u0)
        scale = float(np.max(np.abs(run.iterates[2])))
        assert abs(float(run.iterates[2][-1, 0]) - cn) <= 1e-6 * scale
        assert run.error(2) <= 1e-6 * scale


class TestReferenceTable:
    """One reference per fine problem and N per process, bounded, never shared by value."""

    def test_hit_equals_miss_equals_exact_trajectory(self):
        model = _model("pwm:m=400")
        cfg = make_config(model, 320)
        want = exact_trajectory(model, cfg.times)[:, None]
        algorithm._reference.cache_clear()
        miss = reference_trajectory(cfg)
        hit = reference_trajectory(make_config(model, 320))
        assert algorithm._reference.cache_info()[:2] == (1, 1)  # hits, misses
        assert _same_bits(miss, want) and _same_bits(hit, want)

    def test_theta_and_exact_fine_share_one_entry(self):
        model = _model("pwm:m=400")
        exact_cfg = make_config(model, 20)
        theta_cfg = make_config(model, 20, fine="cn:substeps=7,aligned=1")
        algorithm._reference.cache_clear()
        refs = [reference_trajectory(cfg) for cfg in (exact_cfg, theta_cfg)]
        assert algorithm._reference.cache_info()[1:4] == (1, 64, 1)  # misses, maxsize, entries
        assert _same_bits(*refs)

    def test_inputs_with_the_same_segment_ends_get_their_own_references(self):
        # no switches on either input, so both grids split the same way
        algorithm._reference.cache_clear()
        for spec in ("sine", "const:v=1"):
            model = _model(spec)
            cfg = make_config(model, 8)
            assert _same_bits(reference_trajectory(cfg)[:, 0], exact_trajectory(model, cfg.times)), spec
        assert algorithm._reference.cache_info().currsize == 2

    def test_signed_zero_initial_values_get_their_own_references(self):
        refs = []
        for u0 in (0.0, -0.0):
            model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T), u0=u0)
            refs.append(reference_trajectory(make_config(model, 4))[0, 0])
        assert [math.copysign(1.0, u) for u in refs] == [1.0, -1.0]

    def test_mutating_a_reference_or_the_times_changes_no_later_run(self):
        model = _model("pwm:m=400")
        cfg = make_config(model, 20, termination=FixedIterations(2))
        want = iterate(make_config(model, 20, termination=FixedIterations(2)))
        ref = reference_trajectory(cfg)
        ref[:] = 42.0
        times = cfg.times
        times[:] = 0.0
        assert cfg.times is not times and cfg.times[-1] == T
        run = iterate(cfg)
        assert _same_bits(run.times, want.times)
        assert all(_same_bits(a, b) for a, b in zip(run.iterates, want.iterates))
        assert all(_same_bits(a, b) for a, b in zip(run.errors_vs_reference, want.errors_vs_reference))
        assert _same_bits(reference_trajectory(cfg)[:, 0], exact_trajectory(model, cfg.times))

    def test_the_table_is_bounded(self):
        model = _model("step")
        for n in range(1, 71):
            reference_trajectory(make_config(model, n))
        assert algorithm._reference.cache_info().currsize <= 64
        # the oldest entries went first: N = 1 is computed again
        misses = algorithm._reference.cache_info().misses
        reference_trajectory(make_config(model, 1))
        assert algorithm._reference.cache_info().misses == misses + 1


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
