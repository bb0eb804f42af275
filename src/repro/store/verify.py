"""Operator-facing store scrub: ``repro store verify <dir>``.

The offline twin of the chaos harness's invariant checker: walk a store
directory, validate the manifest generation chain, re-check every shard
file against its recorded size, and parse **every live record** through
the fused parser (falling back to the scalar oracle on failure, so a
fused/scalar divergence is reported as its own damage class rather
than blamed on the disk) and hold it to its slot: bound to its key,
encoded with the store's codec and window size
(:meth:`~repro.store.ShardedStore.check_record`).  The result is a
structured :class:`VerifyReport` with a per-shard damage table; the
CLI exits non-zero iff ``report.ok`` is false.

The scrub is read-only and snapshot-consistent: it opens the newest
valid generation exactly like any reader and never touches a byte on
disk, so running it against a store a writer is actively committing to
is safe.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.errors import CompressionError, ReproError, StoreError
from repro.compression.bitstream import parse_waveform, parse_waveform_scalar
from repro.store.sharded import ShardedStore, list_generation_manifests

__all__ = ["ShardReport", "VerifyReport", "verify_store", "format_report"]


@dataclass
class ShardReport:
    """Scrub result for one shard file of the chosen generation."""

    file: str
    n_bytes: int
    records_checked: int = 0
    damage: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.damage

    def as_dict(self) -> Dict:
        return {
            "file": self.file,
            "n_bytes": self.n_bytes,
            "records_checked": self.records_checked,
            "ok": self.ok,
            "damage": list(self.damage),
        }


@dataclass
class VerifyReport:
    """Everything ``repro store verify`` learned about one directory."""

    path: str
    generation: int = -1
    n_records: int = 0
    n_tombstones: int = 0
    generations_found: List[int] = field(default_factory=list)
    chain_gaps: List[int] = field(default_factory=list)
    manifest_errors: List[str] = field(default_factory=list)
    shards: List[ShardReport] = field(default_factory=list)
    fatal: str = ""

    @property
    def ok(self) -> bool:
        """True iff the store opened and every live record scrubbed clean.

        Skipped (invalid) manifest candidates and chain gaps are
        advisory -- recovery-on-open tolerates both by design -- but a
        store that cannot open at all, or any shard damage, fails.
        """
        return not self.fatal and all(shard.ok for shard in self.shards)

    def as_dict(self) -> Dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "generation": self.generation,
            "n_records": self.n_records,
            "n_tombstones": self.n_tombstones,
            "generations_found": list(self.generations_found),
            "chain_gaps": list(self.chain_gaps),
            "manifest_errors": list(self.manifest_errors),
            "fatal": self.fatal,
            "shards": [shard.as_dict() for shard in self.shards],
        }


def verify_store(path: Union[str, pathlib.Path]) -> VerifyReport:
    """Scrub one store directory; never raises for store damage.

    Only non-store problems (e.g. the path is unreadable at the OS
    level in a way the store layer does not translate) can escape as
    exceptions; every store-level fault lands in the report.
    """
    root = pathlib.Path(path)
    report = VerifyReport(path=str(root))

    manifests = list_generation_manifests(root)
    report.generations_found = sorted(gen for gen, _path in manifests)
    if report.generations_found:
        low, high = report.generations_found[0], report.generations_found[-1]
        present = set(report.generations_found)
        report.chain_gaps = [
            gen for gen in range(low, high + 1) if gen not in present
        ]

    # Which candidates the reader would skip, and why: advisory, but an
    # operator wants to see a torn newest manifest even though open()
    # recovered past it.
    for _generation, manifest_path in manifests:
        try:
            ShardedStore._open_manifest(root, manifest_path)
        except StoreError as exc:
            report.manifest_errors.append(f"{manifest_path.name}: {exc}")

    try:
        store = ShardedStore.open(root)
    except StoreError as exc:
        report.fatal = str(exc)
        return report

    with store:
        report.generation = store.generation
        report.n_records = len(store)
        report.n_tombstones = len(store.tombstones)
        shard_reports = [
            ShardReport(
                file=store.shard_path(shard).name,
                n_bytes=store.shard_path(shard).stat().st_size,
            )
            for shard in range(store.shard_count)
        ]
        for key in store.keys():
            info = store.record_info(*key)
            shard_report = shard_reports[info.shard]
            shard_report.records_checked += 1
            label = f"{key[0]!r} {key[1]} v{info.version}"
            try:
                blob = store.read_record_bytes(*key)
            except ReproError as exc:
                shard_report.damage.append(f"{label}: unreadable span: {exc}")
                continue
            try:
                parsed = parse_waveform(blob)
            except (CompressionError, StoreError) as exc:
                fused_error = exc
                try:
                    parsed = parse_waveform_scalar(blob)
                except ReproError:
                    shard_report.damage.append(
                        f"{label}: record unparseable: {fused_error}"
                    )
                    continue
                shard_report.damage.append(
                    f"{label}: parser divergence (fused rejects, scalar "
                    f"accepts): {fused_error}"
                )
                continue
            try:
                store.check_record(
                    key, parsed.gate, parsed.qubits, parsed.variant,
                    parsed.window_size,
                )
            except StoreError as exc:
                shard_report.damage.append(f"{label}: {exc}")
        report.shards = shard_reports
    return report


def format_report(report: VerifyReport) -> str:
    """Human-readable damage table for the CLI."""
    lines = [
        f"store   {report.path}",
        f"status  {'OK' if report.ok else 'DAMAGED'}",
    ]
    if report.fatal:
        lines.append(f"fatal   {report.fatal}")
        return "\n".join(lines)
    lines.append(
        f"serving generation {report.generation} "
        f"({report.n_records} records, {report.n_tombstones} tombstones)"
    )
    if report.generations_found:
        lines.append(
            "generations on disk: "
            + ", ".join(str(g) for g in report.generations_found)
        )
    if report.chain_gaps:
        lines.append(
            "chain gaps (advisory): "
            + ", ".join(str(g) for g in report.chain_gaps)
        )
    for error in report.manifest_errors:
        lines.append(f"skipped manifest: {error}")
    header = f"{'shard file':<28} {'bytes':>10} {'records':>8} damage"
    lines.append(header)
    for shard in report.shards:
        status = "clean" if shard.ok else f"{len(shard.damage)} fault(s)"
        lines.append(
            f"{shard.file:<28} {shard.n_bytes:>10} "
            f"{shard.records_checked:>8} {status}"
        )
        for item in shard.damage:
            lines.append(f"    - {item}")
    return "\n".join(lines)
