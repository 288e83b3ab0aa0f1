"""Span tracer that times calls into dksub's public functions from outside.

The tracer rebinds a fixed list of public functions (plus
``scipy.linalg.eigh``, which the square solver calls once per ADMM
iteration) to timing wrappers, and puts the originals back on exit.  No file
of the program is touched.

Per function name it keeps the call count and the total time.  Calls made
directly by the benchmark are kept as span records, each carrying the graph
size of its first argument (when it has one) and the counts and seconds of
the traced calls beneath it, and are written out when the run ends.
Per-iteration kernels are only aggregated, so memory stays flat over
hundreds of thousands of iterations.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name); every dksub namespace that binds the same
# function object is rebound too, so calls made from inside the package
# (solve_dks -> complement_edges, verify -> spectral_norm) are seen.
TARGETS = (
    ("dksub.models", "sample_dks", "models.sample_dks"),
    ("dksub.models", "sample_dkb", "models.sample_dkb"),
    ("dksub.graphs", "complement_edges", "graphs.complement_edges"),
    ("dksub.graphs", "proposed_solution", "graphs.proposed_solution"),
    ("dksub.solver", "solve_dks", "solver.solve_dks"),
    ("dksub.solver", "solve_dkb", "solver.solve_dkb"),
    ("scipy.linalg", "eigh", "solver.eigh"),
    ("dksub.solver", "svt", "solver.svt"),
    ("dksub.solver", "soft_threshold", "solver.soft_threshold"),
    ("dksub.solver", "project_sum", "solver.project_sum"),
    ("dksub.solver", "clamp_box", "solver.clamp_box"),
    ("dksub.solver", "round_to_subset", "solver.round_to_subset"),
    ("dksub.solver", "relative_error", "solver.relative_error"),
    ("dksub.certificate", "build_multipliers", "certificate.build_multipliers"),
    ("dksub.certificate", "verify", "certificate.verify"),
    ("dksub.certificate", "spectral_norm", "certificate.spectral_norm"),
    ("dksub.oracle", "brute_force_dks", "oracle.brute_force_dks"),
    ("dksub.oracle", "restricted_relaxation_value", "oracle.restricted_relaxation_value"),
    ("dksub.experiments", "run_phase_diagram", "experiments.run_phase_diagram"),
    ("dksub.experiments", "emit_csv", "experiments.emit_csv"),
    ("dksub.experiments", "emit_heatmap_svg", "experiments.emit_heatmap_svg"),
)


class Tracer:
    """Context manager: rebinds TARGETS on enter, restores them on exit.

    One tracer may be entered several times; its statistics accumulate.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, seconds]
        self.spans: list[dict] = []  # calls made from outside any traced call
        self._stack: list[dict] = []  # per open call, the children of its root call
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        entry = self.stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = stack[0] if stack else {}
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                entry[0] += 1
                entry[1] += dur
                if stack:
                    agg = children.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                else:
                    spans.append({"name": name, "start": start, "end": start + dur,
                                  "n": getattr(args[0], "n", None) if args else None,
                                  "children": children})

        return traced

    def __enter__(self):
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None:
                    continue
                if mod_name == module_name or mod_name == "dksub" or mod_name.startswith("dksub."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, key, original = self._saved.pop()
            setattr(mod, key, original)
        return False

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def write(self, path, header: dict) -> None:
        """Write the header, then one JSON line per recorded span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
