"""Per-layer tracing for the benchmark's traced run.

A `sys.setprofile` hook opens a span on every call into a public function
or method of a `kadjust` module and closes it on the matching return.  A
span records its name, start, end and parent; spans are kept in compact
arrays in memory and turned into per-layer numbers when a traced pass
ends.  Self time is a span's duration minus the time its child spans
cover, so the self times of all spans add up to the time spent inside
`kadjust`.  Span times exclude the time spent in the hook itself, which
would otherwise land on whichever span makes many small calls.

The layers are the modules of the package.  A few counters need a value
from the call itself (a return value, an argument, a reader position);
the hook reads those only for the handful of functions that carry them.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "inputs", "cli", "words", "entropy", "coders",
    "shellcode", "bitio", "stats", "testing", "simulate",
)

# Span name (module-relative qualname) -> coder slot in coders.<slot>.*
CODER_SLOTS = {
    "k_len": "literal",
    "k_comb": "shell",
    "k_run_length": "run_length",
    "run_lengths": "run_length",
    "k_periodic": "periodic",
    "k_pair_shell": "pair_shell",
    "k_model_class": "model_class",
    "encode_word": "encode",
    "decode_word": "decode",
}
CODER_SLOT_NAMES = (
    "literal", "shell", "run_length", "periodic", "pair_shell", "model_class",
    "encode", "decode",
)
# Order of the model_class members; model_tag values name one of these.
MODEL_MEMBERS = ("literal", "shell", "run_length", "periodic", "pair_shell")

BITWORD_BUILD = (
    "words:BitWord.__init__", "words:BitWord.from01", "words:BitWord.from_uint",
    "words:BitWord.prefix",
)
COUNTING = (
    "words:BitWord.weight", "words:weight", "words:SymbolCounts.from_word",
    "words:PairCounts.from_words", "words:block_counts",
)

# kind codes for spans whose outermost call carries a counter
_PLAIN, _WRITE, _READ, _ENTROPY = 0, 1, 2, 3
# functions whose arguments or return value feed a counter
_COUNTED = {
    "simulate:splitmix_outputs": 1,
    "simulate:mix64": 2,
    "coders:k_model_class": 3,
    "shellcode:encode_shell": 4,
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    for slot in CODER_SLOT_NAMES:
        out += [
            (f"coders.{slot}.self_s", "s", "lower"),
            (f"coders.{slot}.calls", "count", "lower"),
        ]
    out += [(f"coders.model_class.wins.{m}", "count", "higher") for m in MODEL_MEMBERS]
    out += [
        ("entropy.peak_bytes", "bytes", "lower"),
        ("shellcode.rank_s", "s", "lower"),
        ("shellcode.unrank_s", "s", "lower"),
        ("shellcode.index_bits", "count", "lower"),
        ("bitio.write_s", "s", "lower"),
        ("bitio.read_s", "s", "lower"),
        ("bitio.bits_written", "count", "lower"),
        ("bitio.bits_read", "count", "lower"),
        ("simulate.generate_s", "s", "lower"),
        ("simulate.draws", "count", "lower"),
        ("testing.words_scored", "count", "higher"),
        ("words.bitword_s", "s", "lower"),
        ("words.counts_s", "s", "lower"),
        ("inputs.parse_s", "s", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
        ("trace_coverage", "ratio", "higher"),
    ]
    return out


def _is_public(qualname: str) -> bool:
    return all(
        part == "__init__" or not (part.startswith("_") or part.startswith("<"))
        for part in qualname.split(".")
    )


class Tracer:
    """Records kadjust spans between start() and stop(); one instance per run."""

    def __init__(self):
        self._ids: dict = {}  # code object -> span name id, or -1 when untracked
        self.names: list[str] = []  # id -> "layer:qualname"
        self._layer: list[int] = []  # id -> index into LAYERS
        self._kind: list[int] = []  # id -> _PLAIN/_WRITE/_READ/_ENTROPY
        self._counted: list[int] = []  # id -> _COUNTED value, 0 for none
        self._stack: list = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counters."""
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack.clear()
        self._depth = [0, 0, 0, 0]
        self._lost = 0.0  # time spent inside the hook since reset()
        self.wins = dict.fromkeys(MODEL_MEMBERS, 0)
        self.index_bits = 0
        self.draws = 0
        self.bits_written = 0
        self.bits_read = 0
        self.peak_bytes = 0

    def _classify(self, frame) -> int:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        sid = -1
        if module.startswith("kadjust.") and _is_public(code.co_qualname):
            layer = module.split(".", 2)[1]
            if layer in LAYERS:
                sid = len(self.names)
                qual = code.co_qualname
                self.names.append(f"{layer}:{qual}")
                self._layer.append(LAYERS.index(layer))
                if qual.startswith("BitWriter.write"):
                    kind = _WRITE
                elif qual.startswith("BitReader.read"):
                    kind = _READ
                elif layer == "entropy":
                    kind = _ENTROPY
                else:
                    kind = _PLAIN
                self._kind.append(kind)
                self._counted.append(_COUNTED.get(self.names[-1], 0))
        self._ids[code] = sid
        return sid

    def _hook(self, frame, event, arg, clock=time.perf_counter):
        # Span times run on a clock that stops while the hook itself runs, so
        # the hook's own cost is not charged to the span that was running.
        entered = clock()
        if event == "call":
            sid = self._ids.get(frame.f_code)
            if sid is None:
                sid = self._classify(frame)
            if sid >= 0:
                self._open(frame, sid, entered - self._lost)
        elif event == "return":
            stack = self._stack
            if stack and stack[-1][0] is frame:
                self._close(frame, arg, entered - self._lost)
        self._lost += clock() - entered

    def _open(self, frame, sid: int, now: float) -> None:
        stack = self._stack
        kind = self._kind[sid]
        base = None
        # Only the outermost reader/writer/entropy span carries a counter,
        # so nested calls (write_elias_gamma -> write_uint) count once.
        if kind and not self._depth[kind]:
            if kind == _WRITE:
                base = len(frame.f_locals["self"])
            elif kind == _READ:
                base = frame.f_locals["self"].pos
            else:
                base = 0
                tracemalloc.start()
        self._depth[kind] += 1
        counted = self._counted[sid]
        if counted == 1:
            self.draws += int(frame.f_locals["count"])
        elif counted == 2:
            self.draws += 1
        idx = len(self._name)
        self._name.append(sid)
        self._parent.append(stack[-1][1] if stack else -1)
        self._start.append(now)
        self._end.append(now)
        stack.append((frame, idx, kind, base))

    def _close(self, frame, arg, now: float) -> None:
        _, idx, kind, base = self._stack.pop()
        self._end[idx] = now
        self._depth[kind] -= 1
        if base is not None:
            if kind == _WRITE:
                self.bits_written += len(frame.f_locals["self"]) - base
            elif kind == _READ:
                self.bits_read += frame.f_locals["self"].pos - base
            elif kind == _ENTROPY:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        counted = self._counted[self._name[idx]]
        if counted > 2 and arg is not None:
            if counted == 3:
                self.wins[arg.model_tag] += 1
            else:
                self.index_bits += int(arg.index_bits.size)

    def start(self) -> None:
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def arrays(self):
        """(name id, parent index, start, end) of every recorded span."""
        return (
            np.frombuffer(self._name, dtype=np.int32),
            np.frombuffer(self._parent, dtype=np.int32),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
        )

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers for the spans recorded since reset(); wall_s is
        the traced time the spans were taken from."""
        name, parent, start, end = self.arrays()
        names = self.names
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - covered
        self_by_id = np.bincount(name, weights=self_t, minlength=len(names))
        incl_by_id = np.bincount(name, weights=dur, minlength=len(names))
        calls_by_id = np.bincount(name, minlength=len(names))

        def total(values, pick) -> float:
            """Sum of values over the span names ("layer:qualname") picked."""
            return float(sum(values[i] for i, n in enumerate(names) if pick(n)))

        m: dict[str, float] = {}
        for layer in LAYERS:
            in_layer = lambda n: n.startswith(layer + ":")  # noqa: E731
            m[f"{layer}.self_s"] = total(self_by_id, in_layer)
            m[f"{layer}.calls"] = total(calls_by_id, in_layer)
        for slot in CODER_SLOT_NAMES:
            in_slot = lambda n: n.startswith("coders:") and CODER_SLOTS.get(n[7:]) == slot  # noqa: E731
            m[f"coders.{slot}.self_s"] = total(self_by_id, in_slot)
            m[f"coders.{slot}.calls"] = total(calls_by_id, in_slot)
        for member in MODEL_MEMBERS:
            m[f"coders.model_class.wins.{member}"] = float(self.wins[member])
        m["entropy.peak_bytes"] = float(self.peak_bytes)
        m["shellcode.rank_s"] = total(incl_by_id, lambda n: n == "shellcode:rank")
        m["shellcode.unrank_s"] = total(incl_by_id, lambda n: n == "shellcode:unrank")
        m["shellcode.index_bits"] = float(self.index_bits)
        m["bitio.write_s"] = total(self_by_id, lambda n: n.startswith("bitio:BitWriter."))
        m["bitio.read_s"] = total(self_by_id, lambda n: n.startswith("bitio:BitReader."))
        m["bitio.bits_written"] = float(self.bits_written)
        m["bitio.bits_read"] = float(self.bits_read)
        m["simulate.generate_s"] = total(incl_by_id, lambda n: n == "simulate:generate")
        m["simulate.draws"] = float(self.draws)
        # Words scored by the testing layer: code_word calls it makes, plus the
        # one uniform draw per trial of the vectorized shell false-positive path.
        layer_of = np.array(self._layer, dtype=np.int64)
        parent_layer = np.full(name.size, -1, dtype=np.int64)
        parent_layer[has_parent] = layer_of[name[parent[has_parent]]]
        scored = [i for i, n in enumerate(names)
                  if n in ("coders:code_word", "simulate:uniform_floats")]
        m["testing.words_scored"] = float(np.count_nonzero(
            np.isin(name, scored) & (parent_layer == LAYERS.index("testing"))))
        m["words.bitword_s"] = total(self_by_id, lambda n: n in BITWORD_BUILD)
        m["words.counts_s"] = total(self_by_id, lambda n: n in COUNTING)
        m["inputs.parse_s"] = total(incl_by_id, lambda n: n == "inputs:parse_word")
        m["trace_coverage"] = float(self_t.sum()) / wall_s if wall_s > 0 else 0.0
        return m

    def write(self, path: Path) -> None:
        """Write the recorded spans to an .npz file."""
        name, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(self.names, dtype=str))


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over the traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
