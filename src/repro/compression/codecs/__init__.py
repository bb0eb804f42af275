"""Pluggable compression codecs and their registry.

Importing this package registers the five built-in codecs:

====  ============  ========  =========  ====================  ========
id    name          windowed  batchable  exact_rational_rows   lossless
====  ============  ========  =========  ====================  ========
0     DCT-N         no        yes        yes                   no
1     DCT-W         yes       yes        yes                   no
2     int-DCT-W     yes       yes        no                    no
3     delta         yes       yes        no                    yes
4     dictionary    yes       yes        no                    yes
====  ============  ========  =========  ====================  ========

Wire ids 0..2 are frozen: they are the v1 ``CQW1``/``CQL1`` variant ids
and existing bitstreams must keep parsing byte-for-byte.
"""

from repro.compression.codecs.base import Codec, wrap_int16
from repro.compression.codecs.registry import (
    codec_for_wire_id,
    ensure_registered,
    get_codec,
    list_codecs,
    register_codec,
    resolve_codec,
    unregister_codec,
)
from repro.compression.codecs.dct import FloatDctCodec, IntDctCodec
from repro.compression.codecs.delta import DeltaCodec
from repro.compression.codecs.dictionary import DictionaryCodec

__all__ = [
    "Codec",
    "wrap_int16",
    "register_codec",
    "unregister_codec",
    "get_codec",
    "resolve_codec",
    "ensure_registered",
    "list_codecs",
    "codec_for_wire_id",
    "FloatDctCodec",
    "IntDctCodec",
    "DeltaCodec",
    "DictionaryCodec",
    "DCT_N",
    "DCT_W",
    "INT_DCT_W",
    "DELTA",
    "DICTIONARY",
]

#: The built-in codec instances, importable directly.
DCT_N = register_codec(FloatDctCodec("DCT-N", wire_id=0, windowed=False))
DCT_W = register_codec(FloatDctCodec("DCT-W", wire_id=1, windowed=True))
INT_DCT_W = register_codec(IntDctCodec())
DELTA = register_codec(DeltaCodec())
DICTIONARY = register_codec(DictionaryCodec())
