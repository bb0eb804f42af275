"""Exception hierarchy for the COMPAQT reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CompressionError(ReproError):
    """A waveform could not be compressed or decompressed.

    Raised for invalid window sizes, corrupt encoded streams, or when
    fidelity-aware compression cannot satisfy the requested error target.
    """


class DeviceError(ReproError):
    """A device model was queried for something it does not have.

    Raised for unknown device names, out-of-range qubit indices, or gates
    missing from a device's basis set.
    """


class StoreError(ReproError):
    """A sharded pulse store could not be written, opened, or served.

    Raised for corrupt or missing store manifests, shard files that do
    not match their manifest, and lookups of pulses the store does not
    hold.
    """


class ProtocolError(ReproError):
    """A CQN1 network frame could not be encoded or decoded.

    Raised for truncated frames, length prefixes beyond the negotiated
    bound, unknown message types, and any payload whose bytes do not
    parse exactly (the wire parser is total: malformed input always
    raises, never yields garbage).
    """


class ServerOverloadedError(ReproError):
    """The serving tier shed a request under admission control.

    The ``CQN1`` server answers with an explicit overload status instead
    of queueing unboundedly; clients surface that as this exception so
    callers (and the open-loop load generator) can count and retry.
    """


class ChaosError(ReproError):
    """A chaos/soak invariant was violated under fault injection.

    Raised by the :mod:`repro.chaos` harness when a served waveform
    diverges from the scalar oracle, a cache counter law breaks, or an
    injected fault escapes the stack as something other than a typed
    :class:`StoreError` / :class:`CompressionError` /
    :class:`ProtocolError`.
    """


class ScheduleError(ReproError):
    """A circuit could not be scheduled onto a device."""


class SimulationError(ReproError):
    """A quantum simulation received invalid inputs."""
