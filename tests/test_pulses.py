"""Tests for envelopes, quantization, Waveform and PulseLibrary."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import DeviceError
from repro.pulses import (
    FULL_SCALE,
    PulseLibrary,
    Waveform,
    constant,
    cosine_tapered,
    dequantize,
    drag,
    gaussian,
    gaussian_square,
    lifted_gaussian,
    quantize,
    quantize_iq,
)


class TestEnvelopes:
    def test_gaussian_peak_at_center(self):
        env = gaussian(161, 0.8, 30).real
        assert env[80] == pytest.approx(0.8)
        assert np.argmax(env) == 80

    def test_lifted_gaussian_edges_near_zero(self):
        env = lifted_gaussian(160, 0.9, 40).real
        assert abs(env[0]) < 0.02
        assert abs(env[-1]) < 0.02
        assert env.max() == pytest.approx(0.9, abs=1e-3)

    def test_lifted_gaussian_symmetric(self):
        env = lifted_gaussian(160, 0.5, 40).real
        np.testing.assert_allclose(env, env[::-1], atol=1e-12)

    def test_drag_quadrature_crosses_zero_at_center(self):
        env = drag(160, 0.5, 40, 1.5)
        q = env.imag
        assert q[79] * q[80] <= 0 or abs(q[79]) < 1e-9
        # antisymmetric derivative
        np.testing.assert_allclose(q, -q[::-1], atol=1e-12)

    def test_drag_beta_zero_is_pure_gaussian(self):
        env = drag(160, 0.5, 40, 0.0)
        np.testing.assert_allclose(env.imag, 0)

    def test_gaussian_square_plateau(self):
        env = gaussian_square(1360, 0.3, 64, 1104).real
        rise = (1360 - 1104) // 2
        plateau = env[rise : rise + 1104]
        np.testing.assert_allclose(plateau, 0.3)
        assert abs(env[0]) < 0.02

    def test_gaussian_square_zero_width_is_bell(self):
        env = gaussian_square(160, 0.5, 20, 0).real
        assert env.max() <= 0.5 + 1e-9

    def test_gaussian_square_width_bounds(self):
        with pytest.raises(ValueError):
            gaussian_square(100, 0.5, 10, 101)

    def test_cosine_tapered_flat_center(self):
        env = cosine_tapered(100, 0.7, 0.4).real
        assert env[50] == pytest.approx(0.7)
        assert env[0] < 0.1

    def test_cosine_taper_fraction_validated(self):
        with pytest.raises(ValueError):
            cosine_tapered(100, 0.5, 0.0)

    def test_constant_envelope(self):
        np.testing.assert_allclose(constant(10, 0.25).real, 0.25)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: gaussian(0, 1, 1),
            lambda: drag(0, 1, 1, 1),
            lambda: gaussian_square(0, 1, 1, 0),
        ],
    )
    def test_zero_duration_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestQuantization:
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 100),
            elements=st.floats(-1.0, 1.0, allow_nan=False),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_within_half_lsb(self, values):
        back = dequantize(quantize(values))
        assert np.max(np.abs(back - values)) <= 0.5 / FULL_SCALE + 1e-12

    def test_full_scale_maps_to_max_code(self):
        assert quantize(np.array([1.0]))[0] == FULL_SCALE
        assert quantize(np.array([-1.0]))[0] == -FULL_SCALE

    def test_saturation(self):
        assert quantize(np.array([2.0]))[0] == FULL_SCALE

    def test_quantize_iq_splits_channels(self):
        i_codes, q_codes = quantize_iq(np.array([0.5 + 0.25j]))
        assert i_codes[0] == quantize(np.array([0.5]))[0]
        assert q_codes[0] == quantize(np.array([0.25]))[0]


class TestWaveform:
    def _wf(self, n=160):
        return Waveform("x_q0", drag(n, 0.5, n / 4, -1.0), dt=1e-9, gate="x", qubits=(0,))

    def test_basic_geometry(self):
        wf = self._wf()
        assert wf.n_samples == 160
        assert wf.duration == pytest.approx(160e-9)
        assert wf.duration_ns == pytest.approx(160)

    def test_memory_accounting(self):
        wf = self._wf()
        assert wf.sample_bits == 32
        assert wf.memory_bits == 160 * 32
        assert wf.memory_bytes == 160 * 4

    def test_amplitude_bound_enforced(self):
        with pytest.raises(ValueError):
            Waveform("bad", np.array([1.5 + 0j]), dt=1e-9)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            Waveform("bad", np.array([], dtype=complex), dt=1e-9)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            Waveform("bad", np.array([0.1 + 0j]), dt=0.0)

    @pytest.mark.parametrize(
        "samples, dt",
        [
            ([0.1 + 0j], float("nan")),
            ([complex("nan+0j"), 0.1 + 0j], 1e-9),
            # NaN used to hide the out-of-range sample beside it.
            ([float("nan"), 5.0], 1e-9),
        ],
        ids=["nan-dt", "nan-sample", "nan-hides-out-of-range"],
    )
    def test_nan_rejected(self, samples, dt):
        with pytest.raises(ValueError):
            Waveform("bad", np.array(samples, dtype=complex), dt=dt)

    def test_samples_read_only(self):
        wf = self._wf()
        with pytest.raises(ValueError):
            wf.samples[0] = 0

    def test_fixed_point_roundtrip(self):
        wf = self._wf()
        i_codes, q_codes = wf.to_fixed_point()
        back = Waveform.from_fixed_point(i_codes, q_codes, wf.dt)
        assert wf.mse(back) < 1e-9

    def test_mse_requires_equal_length(self):
        with pytest.raises(ValueError):
            self._wf(160).mse(self._wf(80))

    def test_mse_of_self_is_zero(self):
        wf = self._wf()
        assert wf.mse(wf) == 0.0

    def test_with_samples_preserves_binding(self):
        wf = self._wf()
        other = wf.with_samples(np.zeros(5, dtype=complex), name="z")
        assert other.gate == "x"
        assert other.qubits == (0,)
        assert other.name == "z"


class TestPulseLibrary:
    def _library(self):
        lib = PulseLibrary(device_name="test")
        for q in range(3):
            lib.add(
                Waveform(
                    f"x_q{q}", drag(16, 0.5, 4, 0.5), dt=1e-9, gate="x", qubits=(q,)
                )
            )
        lib.add(
            Waveform(
                "cx_q0_q1",
                gaussian_square(64, 0.4, 8, 32),
                dt=1e-9,
                gate="cx",
                qubits=(0, 1),
            )
        )
        return lib

    def test_lookup(self):
        lib = self._library()
        assert lib.waveform("x", (1,)).name == "x_q1"

    def test_missing_entry_raises(self):
        with pytest.raises(DeviceError):
            self._library().waveform("x", (9,))

    def test_unbound_waveform_rejected(self):
        lib = PulseLibrary()
        with pytest.raises(DeviceError):
            lib.add(Waveform("w", np.array([0.1 + 0j]), dt=1e-9))

    def test_len_iter_contains(self):
        lib = self._library()
        assert len(lib) == 4
        assert ("cx", (0, 1)) in lib
        assert ("cx", (1, 0)) not in lib
        assert len(list(lib)) == 4

    def test_gates_and_filters(self):
        lib = self._library()
        assert lib.gates() == ["x", "cx"]
        assert len(lib.for_gate("x")) == 3
        assert {w.name for w in lib.for_qubit(0)} == {"x_q0", "cx_q0_q1"}

    def test_totals(self):
        lib = self._library()
        assert lib.total_samples == 3 * 16 + 64
        assert lib.total_bits == lib.total_samples * 32

    def test_subset(self):
        lib = self._library()
        sub = lib.subset([("x", (0,)), ("cx", (0, 1))])
        assert len(sub) == 2

    def test_replacement_overwrites(self):
        lib = self._library()
        lib.add(
            Waveform("x_q0_v2", drag(16, 0.4, 4, 0.1), dt=1e-9, gate="x", qubits=(0,))
        )
        assert len(lib) == 4
        assert lib.waveform("x", (0,)).name == "x_q0_v2"
