import numpy as np
import pytest

from repro.api import CompaqtCompiler, resolve_device
from repro.compression.bitstream import serialize_waveform
from repro.compression.fastpath import decode_records
from repro.core import DriftModel

from cqbench.oracle import Oracle, same_samples


@pytest.fixture(scope="module")
def records():
    """Two versions of one pulse's record, as a store would hold them."""
    pulse = next(iter(resolve_device("lima").pulse_library()))
    compiler = CompaqtCompiler(window_size=16, codec="int-DCT-W")
    v1 = serialize_waveform(compiler.compile_waveform(pulse).compressed)
    drifted = DriftModel(seed=3).drifted(pulse, 5)
    v2 = serialize_waveform(compiler.compile_waveform(drifted).compressed)
    assert v1 != v2
    return v1, v2


def _flip_one_sample(waveform):
    samples = waveform.samples.copy()
    raw = samples.view(np.uint64)
    raw[len(raw) // 2] ^= 1  # lowest mantissa bit of one I or Q value
    return waveform.with_samples(samples)


def test_served_fast_path_matches_scalar_oracle(records):
    oracle = Oracle()
    served = decode_records([records[0]])[0]
    assert oracle.matches(served, [records[0]])
    assert not oracle.matches(served, [records[1]])


def test_one_flipped_sample_is_caught(records):
    oracle = Oracle()
    served = _flip_one_sample(decode_records([records[0]])[0])
    assert not same_samples(served, oracle.reference(records[0]))
    assert not oracle.matches(served, [records[0]])


def test_mismatches_accept_any_committed_version(records):
    v1, v2 = records
    oracle = Oracle()
    key = ("x", (0,))
    old, new = decode_records([v1, v2])
    assert oracle.mismatches({key: old}, {key: [v1, v2]}) == []
    assert oracle.mismatches({key: new}, {key: [v1, v2]}) == []
    assert oracle.mismatches({key: new}, {key: [v1]}) == [key]
    assert oracle.mismatches({key: _flip_one_sample(new)}, {key: [v1, v2]}) == [key]


def test_reference_is_decoded_once_per_record(records):
    oracle = Oracle()
    assert oracle.reference(records[0]) is oracle.reference(bytes(records[0]))
