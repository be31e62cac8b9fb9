"""Run one cremlat command with per-layer spans (the benchmark's traced pass).

Usage: python3 perfbench/launch.py TRACE_JSON SUBCOMMAND [ARGS...]

Times `import cremlat.cli`, wraps the public functions of each layer in
every cremlat module that binds them (so callers that imported a name see
the wrapper), runs `cremlat.cli.main(argv)` and writes each span's self time
and call count, plus counters, to TRACE_JSON.  Stdout and the exit code are
those of `python -m cremlat`; an uncaught exception still propagates.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

clock = time.perf_counter


class Tracer:
    """Nested spans aggregated by name: self time, calls, and counters."""

    def __init__(self) -> None:
        self.self_ms: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self._open: list = []  # [start, ms covered by child spans]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        frame = [clock(), 0.0]
        self._open.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            ms = (clock() - frame[0]) * 1e3
            self.self_ms[name] = self.self_ms.get(name, 0.0) + ms - frame[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._open:
                self._open[-1][1] += ms

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced


def install(tracer: Tracer) -> None:
    from cremlat import _delta_py, bubble, cremona, halphen, hypgraph, lattice, length, serialize, voronoi

    modules = [m for name, m in sys.modules.items() if name == "cremlat" or name.startswith("cremlat.")]

    def patch(span: str, fn, counter=None) -> None:
        traced = tracer.wrap(span, fn, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)

    def read(path, *_args) -> None:
        try:
            tracer.count("serialize.bytes_in", os.path.getsize(path))
        except OSError:  # the wrapped reader reports the missing file
            pass

    patch("serialize.load_json", serialize.load_json, read)
    patch("serialize.metric_from_csv", serialize.metric_from_csv, read)
    patch("serialize.csv_text", serialize.csv_text)
    for name in ("load_runconfig", "runconfig_from_record", "configuration_from_record",
                 "characteristic_from_record", "class_from_record", "germset_from_record"):
        patch("serialize.records", getattr(serialize, name))
    patch("hypgraph.four_point_delta", hypgraph.four_point_delta)
    patch("hypgraph.flat_growth", hypgraph.flat_growth)
    patch("hypgraph.flat_certificate", hypgraph.flat_certificate)
    patch("halphen.twist_characteristic", halphen.twist_characteristic)
    patch("halphen.twist_degree", halphen.twist_degree)
    patch("length.greedy_length", length.greedy_length)
    patch("length.greedy_predecessor", length.greedy_predecessor)
    patch("cremona.jonquieres_characteristic", cremona.jonquieres_characteristic)
    patch("cremona.require_valid", cremona.require_valid)
    patch("lattice.in_E", lattice.in_E)
    patch("voronoi.classify_germ", voronoi.classify_germ)
    hypgraph.FiniteMetric.__init__ = tracer.wrap("hypgraph.FiniteMetric", hypgraph.FiniteMetric.__init__)
    bubble.Configuration.__init__ = tracer.wrap("bubble.Configuration", bubble.Configuration.__init__)

    # four_point_delta looks each kernel up as an attribute of its module
    def pure(d, *_args) -> None:
        tracer.count("kernel.quadruples", math.comb(len(d), 4))
        if hypgraph.COMPILED_DELTA:
            tracer.count("kernel.pure_fallbacks")

    def compiled(d, *_args) -> None:
        tracer.count("kernel.quadruples", math.comb(len(d), 4))
        tracer.count("kernel.compiled_calls")

    patch("kernel.max_defect", _delta_py.max_defect, pure)
    if hypgraph.COMPILED_DELTA:
        patch("kernel.max_defect", hypgraph._delta_cy.max_defect, compiled)


def main() -> None:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = clock()
    import cremlat.cli

    import_ms = (clock() - start) * 1e3
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.call("cli.main", cremlat.cli.main, argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"import_ms": import_ms, "self_ms": tracer.self_ms,
                       "calls": tracer.calls, "counts": tracer.counts}, handle)
    sys.stdout.flush()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
