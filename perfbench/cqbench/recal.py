"""The recalibration writer: the cycle of ``examples/recalibration_loop.py``.

One step, for K seeded keys:

1. drift the keys with :class:`~repro.core.DriftModel` (input
   generation, before the clock starts), then ``compile_waveform`` ->
   ``StoreWriter.put`` -> ``StoreWriter.commit``;
2. the server host adopts the commit (``PulseServer.refresh`` through
   its control port);
3. a probe connection fetches the keys; after the run their samples
   are checked against the newly committed records.

``recal_s`` runs from handing the drifted pulses to the compiler until
the probe fetch returns.  The writer compacts every ``compact_every``
commits, and the server adopts the compaction too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.api import CompaqtCompiler
from repro.core import DriftModel
from repro.errors import ReproError
from repro.pulses.waveform import Waveform
from repro.store import StoreWriter
from repro.store.sharded import generation_manifest_name

from cqbench.inputs import Key
from cqbench.load import Ledger, failure_reason
from cqbench.oracle import Oracle, same_samples

__all__ = ["Step", "Recalibrator"]


@dataclass
class Step:
    """Timings (seconds) and outcome of one recalibration step."""

    number: int
    keys: List[Key]
    #: ``perf_counter`` when the compile began (one clock across processes).
    started: float
    late_s: float
    compile_s: float
    put_s: float
    commit_s: float
    adopt_s: float
    server_refresh_s: float
    recal_s: Optional[float]
    commit_bytes: int
    shard_files: int
    committed: Dict[Key, bytes] = field(default_factory=dict)
    probed: Optional[list] = None


class Recalibrator:
    """Drives recalibration steps against one store and its server.

    ``server`` answers ``call("refresh")`` (a control-port client);
    ``probe`` is a ``fetch_batch`` on its own connection.
    """

    def __init__(
        self,
        store_path,
        originals: Mapping[Key, Waveform],
        compiler: CompaqtCompiler,
        model: DriftModel,
        server,
        probe: Callable[[Sequence[Key]], list],
        ledger: Ledger,
        compact_every: int,
    ) -> None:
        self.writer = StoreWriter(store_path)
        self.originals = originals
        self.compiler = compiler
        self.model = model
        self.server = server
        self.probe = probe
        self.ledger = ledger
        self.compact_every = compact_every
        self.steps: List[Step] = []
        self.compactions: List[float] = []
        self.server_refreshes: List[float] = []

    def close(self) -> None:
        self.writer.close()

    def _adopt(self, generation: int) -> float:
        """Have the server adopt ``generation``; returns its refresh seconds."""
        self.ledger.attempt("adopt")
        reply = self.server.call("refresh")
        self.server_refreshes.append(reply["seconds"])
        if reply["generation"] != generation:
            self.ledger.fail("adopt", "stale")
        return reply["seconds"]

    def step(self, number: int, keys: Sequence[Key], late_s: float = 0.0) -> None:
        drifted = [self.model.drifted(self.originals[key], number) for key in keys]
        t0 = time.perf_counter()
        results = [self.compiler.compile_waveform(w) for w in drifted]
        t1 = time.perf_counter()
        for key, result in zip(keys, results):
            self.writer.put(key[0], key[1], result)
        t2 = time.perf_counter()
        self.ledger.attempt("commit")
        try:
            committed = self.writer.commit()
        except (ReproError, OSError) as exc:
            self.ledger.fail("commit", failure_reason(exc))
            self.writer.discard_pending()
            return
        t3 = time.perf_counter()
        server_refresh_s = self._adopt(committed.generation)
        t4 = time.perf_counter()
        self.ledger.attempt("probe")
        probed: Optional[list] = None
        try:
            probed = self.probe(list(keys))
        except (ReproError, OSError) as exc:
            self.ledger.fail("probe", failure_reason(exc))
        t5 = time.perf_counter()

        # Off the clock: what the checks need later.
        delta_shard = committed.shard_path(committed.shard_count - 1)
        manifest = committed.path / generation_manifest_name(committed.generation)
        self.steps.append(
            Step(
                number=number,
                keys=list(keys),
                started=t0,
                late_s=late_s,
                compile_s=t1 - t0,
                put_s=t2 - t1,
                commit_s=t3 - t2,
                adopt_s=t4 - t3,
                server_refresh_s=server_refresh_s,
                recal_s=(t5 - t0) if probed is not None else None,
                commit_bytes=delta_shard.stat().st_size + manifest.stat().st_size,
                shard_files=committed.shard_count,
                committed={key: committed.read_record_bytes(*key) for key in keys},
                probed=probed,
            )
        )
        if len(self.steps) % self.compact_every == 0:
            self._compact()

    def _compact(self) -> None:
        self.ledger.attempt("compact")
        start = time.perf_counter()
        try:
            compacted = self.writer.compact()
        except (ReproError, OSError) as exc:
            self.ledger.fail("compact", failure_reason(exc))
            return
        self.compactions.append(time.perf_counter() - start)
        self._adopt(compacted.generation)

    def run(
        self,
        plan: Sequence[Sequence[Key]],
        period_s: float,
        stop_at: float,
        first: int,
    ) -> int:
        """Step ``i`` (drift step ``first + i + 1``) due ``i * period_s`` from now.

        A step that comes due while the previous one still runs starts
        as soon as it ends; ``Step.late_s`` records by how much.  No
        step starts at or after ``stop_at``.  Returns the steps started.
        """
        start = time.perf_counter()
        for index, keys in enumerate(plan):
            due = start + index * period_s
            now = time.perf_counter()
            if due >= stop_at or now >= stop_at:
                return index
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            self.step(first + index + 1, keys, now - due)
        return len(plan)

    def check_probes(self, oracle: Oracle) -> None:
        """Each probe must have returned exactly the records just committed.

        Drops the probed waveforms afterwards; a step whose probe saw
        anything else counts as one failed ``probe``.
        """
        for step in self.steps:
            if step.probed is not None and not all(
                same_samples(w, oracle.reference(step.committed[k]))
                for k, w in zip(step.keys, step.probed)
            ):
                self.ledger.fail("probe", "mismatch")
            step.probed = None
