"""The codec registry: one place where variant names resolve.

Every consumer -- scalar pipeline, batch engine, bitstream, compiler,
CLI, bench -- resolves codecs here instead of string-matching variant
names.  Registering a codec therefore plugs it into the whole stack at
once:

    >>> from repro.compression.codecs import Codec, register_codec
    >>> class MyCodec(Codec):
    ...     name = "my-scheme"
    ...     wire_id = 17
    ...     ...
    >>> register_codec(MyCodec())
    >>> compress_waveform(wf, codec="my-scheme")  # now works everywhere
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.errors import CompressionError
from repro.compression.codecs.base import Codec

__all__ = [
    "register_codec",
    "unregister_codec",
    "get_codec",
    "resolve_codec",
    "ensure_registered",
    "list_codecs",
    "codec_for_wire_id",
]

_BY_NAME: Dict[str, Codec] = {}
_BY_WIRE_ID: Dict[int, Codec] = {}


def register_codec(codec: Codec, replace: bool = False) -> Codec:
    """Add a codec to the registry; returns it for chaining.

    Args:
        codec: A :class:`Codec` instance with a non-empty ``name`` and a
            wire id in 0..255 that no other codec claims.
        replace: Allow re-registering an existing name/wire id (useful
            for tests and experimentation).
    """
    if not isinstance(codec, Codec):
        raise CompressionError(
            f"expected a Codec instance, got {type(codec).__name__}"
        )
    if not codec.name:
        raise CompressionError("codec must define a non-empty name")
    if not 0 <= codec.wire_id <= 0xFF:
        raise CompressionError(
            f"codec {codec.name!r} wire id {codec.wire_id} does not fit "
            f"the u8 bitstream header"
        )
    if not replace:
        if codec.name in _BY_NAME:
            raise CompressionError(f"codec {codec.name!r} is already registered")
        if codec.wire_id in _BY_WIRE_ID:
            raise CompressionError(
                f"wire id {codec.wire_id} is already taken by "
                f"{_BY_WIRE_ID[codec.wire_id].name!r}"
            )
    else:
        # Drop any previous holder of this name or wire id so the two
        # indices never disagree.
        previous = _BY_NAME.pop(codec.name, None)
        if previous is not None:
            _BY_WIRE_ID.pop(previous.wire_id, None)
        shadowed = _BY_WIRE_ID.pop(codec.wire_id, None)
        if shadowed is not None:
            _BY_NAME.pop(shadowed.name, None)
    _BY_NAME[codec.name] = codec
    _BY_WIRE_ID[codec.wire_id] = codec
    return codec


def unregister_codec(name: str) -> None:
    """Remove a codec by name (primarily for tests)."""
    codec = _BY_NAME.pop(name, None)
    if codec is None:
        raise CompressionError(f"codec {name!r} is not registered")
    _BY_WIRE_ID.pop(codec.wire_id, None)


def list_codecs() -> Tuple[str, ...]:
    """Registered codec names, in wire-id order."""
    return tuple(
        codec.name for _id, codec in sorted(_BY_WIRE_ID.items())
    )


def get_codec(name: str) -> Codec:
    """Look up a codec by its registry name.

    Raises :class:`CompressionError` naming the registered codecs when
    the name is unknown.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; registered codecs: {list_codecs()}"
        ) from None


def resolve_codec(variant: Union[str, Codec]) -> Codec:
    """Resolve a codec name *or* pass a codec object through.

    This is the single entry point that lets every ``codec=`` argument
    take either a registry name (``"int-DCT-W"``) or a first-class
    :class:`Codec` object.  An object passes through unchanged, but the
    compress entry points additionally require it to be *registered*
    (:func:`ensure_registered`): compressed channels, the decoders and
    the bitstream all resolve codecs back by name, so an unregistered
    object would fail later and further away.
    """
    if isinstance(variant, Codec):
        return variant
    if not isinstance(variant, str):
        raise CompressionError(
            f"variant must be a codec name or Codec instance, "
            f"got {type(variant).__name__}"
        )
    return get_codec(variant)


def ensure_registered(codec: Codec) -> Codec:
    """Raise unless this exact codec instance is reachable by its name.

    Called by the compress entry points so that handing in an
    unregistered (or stale, replaced) :class:`Codec` object fails
    immediately with a clear message instead of mid-reconstruction or
    at serialization time.
    """
    if _BY_NAME.get(codec.name) is not codec:
        raise CompressionError(
            f"codec {codec.name!r} is not registered; call "
            f"register_codec() first so the decode, batch and bitstream "
            f"layers can resolve it by name"
        )
    return codec


def codec_for_wire_id(wire_id: int) -> Codec:
    """Resolve a bitstream codec id back to its codec."""
    try:
        return _BY_WIRE_ID[wire_id]
    except KeyError:
        raise CompressionError(
            f"unknown codec id {wire_id}; known ids: "
            f"{sorted(_BY_WIRE_ID)}"
        ) from None
