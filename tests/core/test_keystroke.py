"""Tests for the keystroke-timing extension."""

import numpy as np
import pytest

from repro.core.keystroke import (
    KeystrokeAttacker,
    KeystrokeRecovery,
    TypingModel,
    keyboard_core,
    quiet_machine,
    run_keystroke_attack,
    typing_timeline,
)
from repro.sim.events import MS, SEC
from repro.sim.machine import CoreIndexError, MachineConfig
from repro.workload.phases import BurstKind


class TestTypingModel:
    def test_key_times_increasing(self, rng):
        times = TypingModel().sample_key_times(20, rng)
        assert np.all(np.diff(times) > 0)

    def test_mean_interval_roughly_matches(self, rng):
        model = TypingModel(mean_interval_ms=100.0, sigma=0.1)
        times = model.sample_key_times(500, rng)
        mean_ms = np.diff(times).mean() / MS
        assert mean_ms == pytest.approx(100.0, rel=0.15)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            TypingModel(mean_interval_ms=0)
        with pytest.raises(ValueError):
            TypingModel().sample_key_times(0, rng)


class TestTypingTimeline:
    def test_one_burst_per_key(self):
        timeline = typing_timeline([1 * SEC, 2 * SEC], 5 * SEC)
        assert len(timeline) == 2
        assert all(b.kind is BurstKind.INPUT for b in timeline)

    def test_out_of_horizon_keys_dropped(self):
        timeline = typing_timeline([1 * SEC, 9 * SEC], 5 * SEC)
        assert len(timeline) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            typing_timeline([], 5 * SEC)


class TestKeyboardCore:
    def test_default_routing_is_stable(self):
        machine = MachineConfig()
        assert keyboard_core(machine) == keyboard_core(machine)

    def test_irqbalance_moves_keyboard(self):
        machine = MachineConfig(irqbalance=True, attacker_core=1)
        assert keyboard_core(machine) == 0


class TestRecoveryMetrics:
    def test_perfect_recovery(self):
        times = np.array([1e9, 2e9, 3e9])
        recovery = KeystrokeRecovery(
            detected_ns=times.copy(), true_ns=times, tolerance_ns=5 * MS
        )
        assert recovery.recall == 1.0
        assert recovery.precision == 1.0
        assert recovery.timing_errors_ns().max() == 0.0

    def test_missed_keys_reduce_recall(self):
        recovery = KeystrokeRecovery(
            detected_ns=np.array([1e9]),
            true_ns=np.array([1e9, 2e9]),
            tolerance_ns=5 * MS,
        )
        assert recovery.recall == 0.5
        assert recovery.precision == 1.0

    def test_spurious_detections_reduce_precision(self):
        recovery = KeystrokeRecovery(
            detected_ns=np.array([1e9, 5e9]),
            true_ns=np.array([1e9]),
            tolerance_ns=5 * MS,
        )
        assert recovery.precision == 0.5

    def test_empty_edge_cases(self):
        recovery = KeystrokeRecovery(
            detected_ns=np.array([]), true_ns=np.array([]), tolerance_ns=1.0
        )
        assert recovery.recall == 1.0 and recovery.precision == 1.0


class TestAttackEndToEnd:
    def test_quiet_system_recovers_keystrokes(self):
        recovery = run_keystroke_attack(seed=2)
        assert recovery.recall > 0.6
        assert recovery.precision > 0.25
        errors = recovery.timing_errors_ns()
        assert np.median(errors) < 2 * MS

    def test_busy_system_destroys_precision(self):
        """Background device traffic is indistinguishable from keys."""
        from dataclasses import replace

        from repro.workload.browser import LINUX

        noisy_os = replace(LINUX, background_irq_hz=800.0)
        noisy = run_keystroke_attack(
            seed=2, machine=MachineConfig(os=noisy_os, pin_cores=True)
        )
        quiet = run_keystroke_attack(seed=2)
        assert noisy.precision < quiet.precision

    @pytest.mark.parametrize("core", [-1, 4])
    def test_out_of_range_core_rejected(self, nytimes_run, core):
        assert nytimes_run.config.n_cores == 4
        with pytest.raises(CoreIndexError, match=f"core {core} out of range for 4 cores"):
            KeystrokeAttacker().recover(nytimes_run, [], core=core)

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            KeystrokeAttacker(gap_band_ns=(10.0, 5.0))
