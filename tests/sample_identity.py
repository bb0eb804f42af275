"""Byte identity of decoded samples, shared by the decode conformance tests."""

from repro.pulses import Waveform


def assert_same_samples(got: Waveform, want: Waveform) -> None:
    """Byte identity, as perfbench's oracle and the serving identity
    gates judge it: ``assert_array_equal`` would let a sign-flipped
    zero through."""
    assert got.samples.dtype == want.samples.dtype
    assert got.samples.shape == want.samples.shape
    assert got.dt == want.dt
    assert got.samples.tobytes() == want.samples.tobytes()
