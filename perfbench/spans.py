"""In-memory span tracing of the library's public functions.

A :class:`Tracer` replaces module attributes with timing wrappers, so every
caller that looks a function up through its module (including the library's
own internal calls, e.g. ``score_pair_s`` -> ``ransac_homography``) is
covered.  Modules that imported a function by name hold their own reference;
``install`` rebinds every such copy inside the ``corrverify`` package.

Spans are kept in memory as ``(name, start, end, parent, qid)`` and are only
aggregated when the benchmark ends.  ``qid`` identifies the request (or the
set-up step) the span belongs to.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, function, byte counter fed from the file at its path argument);
# a layer is reported as "<module>.<function>"
LAYER_FUNCTIONS = (
    ("core", "load_image", "bytes_read"),
    ("core", "save_image", "bytes_written"),
    ("core", "read_fmap", "bytes_read"),
    ("core", "write_fmap", "bytes_written"),
    ("core", "read_gdsc", "bytes_read"),
    ("core", "write_gdsc", "bytes_written"),
    ("core", "read_cmap", "bytes_read"),
    ("core", "write_cmap", "bytes_written"),
    ("core", "resample_map", None),
    ("pyramid", "build_pyramid", None),
    ("pyramid", "extract_hypercolumn", None),
    ("pyramid", "compute_global_descriptor", None),
    ("verify", "score_pair_s", None),
    ("verify", "ransac_homography", None),
    ("verify", "fit_homography_dlt", None),
    ("verify", "cyclic_mask", None),
    ("verify", "score_s_l", None),
    ("synth", "gen_benchmark", None),
    ("synth", "random_warp", None),
    ("synth", "apply_warp", None),
)
# (module, class, method): patched on the class, which every importer shares
LAYER_METHODS = (
    ("rng", "Lcg64", "sample_distinct"),
)

LAYERS = tuple(f"{m}.{f}" for m, f, _ in LAYER_FUNCTIONS) \
    + tuple(f"{m}.{meth}" for m, _, meth in LAYER_METHODS)

PACKAGE = "corrverify"


class Tracer:
    """Records nested spans and byte counters for one benchmark process."""

    def __init__(self):
        self.spans = []              # (name, start, end, parent index, qid)
        self.counters = defaultdict(int)   # (qid, counter) -> value
        self.qid = "setup"
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.qid])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, counter, value):
        self.counters[(self.qid, counter)] += value

    def _wrap(self, fn, name, byte_counter):
        tracer = self
        # readers take the path first, writers take (value, path)
        path_arg = 0 if byte_counter == "bytes_read" else 1

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if byte_counter is not None:
                # computed from the file size, not measured I/O
                tracer.count("core." + byte_counter, os.path.getsize(args[path_arg]))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every layer function wherever the package holds a reference."""
        package_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, byte_counter in LAYER_FUNCTIONS:
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            traced = self._wrap(orig, f"{mod_name}.{attr}", byte_counter)
            for mod in package_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, traced)
        for mod_name, cls_name, attr in LAYER_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, f"{mod_name}.{attr}", None))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, qid in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, qid) in enumerate(spans):
        out.append((end - start) - _covered(children.get(i, ()), start, end))
    return out


def layer_stats(spans, keep=lambda qid: True):
    """{name: (calls, total seconds, total self seconds)} over kept spans."""
    selfs = self_times(spans)
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, parent, qid), own in zip(spans, selfs):
        if keep(qid):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += own
    return {k: tuple(v) for k, v in stats.items()}
