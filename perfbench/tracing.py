"""Spans around the calls into each layer of ``ququart_qkd``.

The tracer wraps library functions at the module bindings their callers
use (``protocol.measure_projective``, ``session.predict``, the hook that
``make_attack_hook`` returns, ...) and, for the calls the benchmark makes
itself, at the benchmark's own call sites.  Spans live in memory as
columns (name, start, end, parent span, operation id) and are written out
once, after the run.  Self time is a span's duration minus the durations
of its direct children.

Forked pool workers inherit the wrappers; they call straight through, so
workers stay untraced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
from array import array
from time import perf_counter

import numpy as np

from ququart_qkd import attacks, cli, observables, protocol, session

# (module, attribute, span name): internal call sites of the library.
# session.run_session is traced at the benchmark's call site only: the CLI
# pickles it by name for its pool, which a patched module attribute breaks.
BINDINGS = (
    (protocol, "measure_projective", "linalg.measure_projective"),
    (attacks, "measure_projective", "linalg.measure_projective"),
    (session, "predict", "attacks.predict"),
    (attacks, "attack_channel", "attacks.attack_channel"),
    (session, "make_channel", "channels.make_channel"),
    (session, "run_verification_phase", "protocol.run_verification_phase"),
    (session, "run_key_phase_two_party", "protocol.run_key_phase_two_party"),
    (session, "run_key_phase_controlled", "protocol.run_key_phase_controlled"),
    (protocol, "outcome_from_index", "observables.outcome_from_index"),
    # reached through observables.outcome_from_bits
    (observables, "outcome_from_index", "observables.outcome_from_index"),
    (protocol, "key_basis", "observables.key_basis"),
    (attacks, "key_basis", "observables.key_basis"),
    (session, "bits_to_hex", "session.bits_to_hex"),
    (cli, "format_report", "session.format_report"),
)

# amount recorded per call, for the per-layer work counts
AMOUNTS = {
    "session.bits_to_hex": lambda args, result: len(args[0]),
    "session.format_report": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.names = []  # span name by name id
        self._ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("i")
        self.amounts = {}
        self.stack = []
        self.op = -1
        self.pid = os.getpid()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, transform=None):
        """``fn`` recording one span per call; ``transform`` maps its result."""
        nid = self._name_id(name)
        name_ids, starts, ends, parents, ops, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.ops, self.stack,
        )
        amount = AMOUNTS.get(name)
        pid = self.pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if amount is not None:
                self.amounts[name] = self.amounts.get(name, 0) + amount(args, result)
            return result if transform is None else transform(result)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers at the library's internal bindings."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in BINDINGS]
        saved.append((protocol, "make_attack_hook", protocol.make_attack_hook))
        try:
            for module, attr, name in BINDINGS:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            hook = functools.partial(self.wrap, "attacks.hook")
            protocol.make_attack_hook = self.wrap(
                "attacks.make_attack_hook", protocol.make_attack_hook, transform=hook
            )
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _columns(self):
        """Name ids, parent indices, durations and self times of all spans."""
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        child = parents >= 0
        children_time = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        return names, parents, dur, dur - children_time

    def summary(self) -> dict:
        """Per span name: calls, total seconds and total self seconds."""
        names, _, dur, self_time = self._columns()
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def subtree_self_time(self, root: str) -> float:
        """Summed self time of all ``root`` spans and every span under them,
        which equals their total duration when spans tile their parents."""
        if root not in self._ids:
            return 0.0
        names, parents, _, self_time = self._columns()
        inside = names == self._ids[root]
        # spans are appended in start order, so a parent precedes its children
        for i in range(len(parents)):
            if not inside[i] and parents[i] >= 0 and inside[parents[i]]:
                inside[i] = True
        return float(self_time[inside].sum())

    def write(self, path: str):
        """One tab-separated line per span: op, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for op, nid, start, end, parent in zip(
                self.ops, self.name_ids, self.starts, self.ends, self.parents
            ):
                fh.write(f"{op}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
