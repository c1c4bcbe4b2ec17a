"""Spans and work counters recorded from outside the library.

``Tracer.install`` wraps every public module-level function of each layer
module and rebinds every copy of it: the module attribute, the name another
module imported with ``from .x import f``, and the package re-export.  A
wrapper times its call, adds the duration to its caller's child time, and
charges ``duration - child time`` to its layer as self time.  Nothing under
``src/`` changes, and ``uninstall`` puts the originals back.

Calls of the vector and matrix primitives (``HOT``) are timed and charged like
any other, but are not kept as separate span records, which would otherwise
grow by millions per pass; their time still counts in their caller's child
time.  All other spans (name, start, end, parent, job) stay in memory and are
written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("cli", "linalg", "numsys", "radix", "neighbours", "sep", "intersect", "multinv", "render")

HOT = frozenset(
    "linalg." + name
    for name in (
        "as_matrix as_vec identity mat_vec mat_mul mat_sub mat_transpose mat_pow vec_add "
        "vec_sub vec_neg vec_scale norm_sq zero_vec det mat_frac mat_inv solve adjugate "
        "frac_mat_vec mat_inv_pow is_integral round_div"
    ).split()
) | {"numsys.digit_of", "numsys.evaluate_expansion"}


def _pixels_lit(img) -> int:
    import numpy as np

    px = np.frombuffer(img.pixels, dtype=np.uint8).reshape(-1, img.channels)
    return int(px.any(axis=1).sum())


def _counted(name):
    def post(tracer, frame, args, result):
        tracer.counters[name] += 1
    return post


def _post_lattice_ball(tracer, frame, args, result):
    tracer.counters["linalg.ball_points"] += len(result)
    if tracer.stack:
        tracer.stack[-1][3] += len(result)


def _post_remainder_sequence(tracer, frame, args, result):
    tracer.counters["numsys.walks"] += 1
    tracer.counters["numsys.walk_states"] += len(result.transient) + len(result.cycle)


def _post_tile_points(tracer, frame, args, result):
    if frame[3]:  # a cache hit enumerates no candidate ball
        tracer.counters["neighbours.tile_points"] += len(result)
        tracer.counters["neighbours.ball_points"] += frame[3]


def _post_sep(tracer, frame, args, result):
    tracer.counters["sep.searches"] += 1
    tracer.counters["sep.witnesses"] += result is not None


def _post_hausdorff(tracer, frame, args, result):
    p, q = args[0], args[1]
    n = len(next(iter(p)))
    tracer.counters["multinv.dist_pairs"] += len(p) * len(q)
    # one dense |P| x |Q| x n float64 tensor, computed from the sizes
    tracer.counters["multinv.dist_bytes_computed"] += 8 * len(p) * len(q) * n


def _add(name, size):
    def post(tracer, frame, args, result):
        tracer.counters[name] += size(result)
    return post


def _post_parser(tracer, frame, args, result):
    tracer.counters["cli.parser_s"] += frame[4]


POST = {
    "cli.build_parser": _post_parser,
    "linalg.lattice_ball": _post_lattice_ball,
    "numsys.remainder_sequence": _post_remainder_sequence,
    "neighbours.tile_integer_points": _post_tile_points,
    "neighbours.triple_state_graph": _add("neighbours.triple_edges", lambda g: len(g.edges)),
    "radix.pair_automaton": _add("radix.pair_edges", lambda a: len(a.edges)),
    "radix.eval_exact": _counted("radix.eval_calls"),
    "sep.is_sep_sets_translated": _post_sep,
    "sep.is_sep_int": _post_sep,
    "intersect.build_ifs": _add("intersect.ifs_maps", lambda ifs: ifs.map_count),
    "multinv.xk_cloud": _add("multinv.cloud_points", len),
    "multinv.hausdorff_distance": _post_hausdorff,
    "render.ktile_points": _add("render.cloud_points", len),
    "render.rasterize": _add("render.pixels_lit", _pixels_lit),
}


def public_functions(module):
    """Public functions defined in the module, lru_cache wrappers included."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Span recorder; one per traced pass.

    A frame on the stack is ``[start, child_time, span_index, ball_points,
    duration]``; ``ball_points`` collects candidate-ball sizes reported by
    ``lattice_ball`` calls made directly under the frame.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters: Counter = Counter()
        self.job = -1
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("l")
        self._restore: list[tuple] = []

    def wrap(self, layer: str, name: str, fn, post=None, keep=True):
        full = f"{layer}.{name}"
        name_id = len(self.names)
        self.names.append(full)
        clock, stack = self.clock, self.stack
        self_s, calls = self.self_s, self.calls
        starts, ends, parents, jobs, names = (
            self.span_start, self.span_end, self.span_parent, self.span_job, self.span_name,
        )

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            if keep:
                index = len(starts)
                names.append(name_id)
                parents.append(parent)
                jobs.append(self.job)
                starts.append(0.0)
                ends.append(0.0)
            else:
                index = parent
            frame = [clock(), 0.0, index, 0, 0.0]
            stack.append(frame)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                frame[4] = duration
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if keep:
                    starts[index] = frame[0]
                    ends[index] = end
            if post is not None:
                post(self, frame, args, return_value)
            return return_value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every public function of the layers and rebind all copies."""
        package = importlib.import_module("radixtile")
        modules = [package] + [importlib.import_module(f"radixtile.{m}") for m in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, fn in public_functions(module).items():
                full = f"{layer}.{name}"
                wrapped[id(fn)] = self.wrap(layer, name, fn, POST.get(full), keep=full not in HOT)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapped[id(obj)])
        return self

    def uninstall(self):
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path) -> None:
        """Tab-separated spans: job, id, parent, name, start and duration in us."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job\tid\tparent\tname\tstart_us\tdur_us\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_job[i]}\t{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) * 1e6:.1f}\t{(self.span_end[i] - self.span_start[i]) * 1e6:.1f}\n"
                )

    def layer_metrics(self, out_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (self time in seconds)."""
        c = self.counters
        total = sum(self.self_s.values()) or 1.0
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self.self_s[layer]
            metrics[f"{layer}.self_share"] = self.self_s[layer] / total
            metrics[f"{layer}.calls"] = self.calls[layer]
        metrics["cli.parser_s"] = c["cli.parser_s"]
        metrics["cli.out_bytes"] = out_bytes
        for name in (
            "linalg.ball_points", "numsys.walks", "numsys.walk_states", "neighbours.tile_points",
            "neighbours.triple_edges", "radix.pair_edges", "radix.eval_calls", "sep.searches",
            "intersect.ifs_maps", "multinv.cloud_points", "multinv.dist_pairs",
            "multinv.dist_bytes_computed", "render.cloud_points", "render.pixels_lit",
        ):
            metrics[name] = c[name]
        metrics["neighbours.live_ratio"] = (
            c["neighbours.tile_points"] / c["neighbours.ball_points"] if c["neighbours.ball_points"] else 0.0
        )
        metrics["sep.witness_frac"] = c["sep.witnesses"] / c["sep.searches"] if c["sep.searches"] else 0.0
        return metrics
