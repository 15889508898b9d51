"""Per-layer spans for a traced bench call, taken from outside the program.

``install()`` replaces each public function below with a wrapper at the
module attribute its caller looks up, so a call through any of them opens a
span that nests inside the span of whoever called it.  A span's self time is
its duration minus the durations of the spans directly inside it; the self
times of one call therefore add up to its ``cli.main`` span.  The worker
installs the wrappers only inside a forked child that runs a traced call, so
an untraced call never sees them.
"""

import functools
import time

# (module or class, attribute) -> layer.  A layer's name is the prefix of the
# per-layer metrics it gives: its self seconds are <layer>_s and <layer>_share.
# The spans of ROOT, which wraps cli.main, also give cli.main_s in total.
LAYERS = {
    ("cli", "main"): "cli.self",
    ("cli", "load_structure"): "core.load_structure",
    ("cli", "save_structure"): "core.save_structure",
    ("cli", "encode_tiling_php"): "tiling.encode",
    ("cli", "decide_php"): "homsolver.decide_php_self",
    ("cli", "evaluate"): "cq.evaluate",
    ("homsolver", "product"): "core.product",
    ("homsolver", "find_homomorphism"): "homsolver.find_homomorphism",
    ("homsolver", "image_witnesses"): "homsolver.image_witnesses",
    ("cqdef", "product"): "core.product",
    ("cqdef", "image_witnesses"): "homsolver.image_witnesses",
    ("cqdef", "canonical_query"): "cq.canonical_query",
    ("cqdef", "decide_cq_definability"): "cqdef.decide_self",
    ("cqdef", "reduce_php_to_nondefinability"): "cqdef.reduce",
    ("normalform", "digraph_transform"): "normalform.digraph_transform",
    ("core.Homomorphism", "validate"): "core.validate",
}
ROOT = LAYERS[("cli", "main")]


def _count_product(c, args, result):
    c["core.product_elements"] += len(result.domain)
    c["core.product_tuples"] += result.tuple_count()


def _count_csp(c, args, result):
    source = args[0]
    c["homsolver.variables"] += len(source.domain)
    c["homsolver.constraints"] += source.tuple_count()


def _count_images(c, args, result):
    source, target = args[0], args[1]
    c["homsolver.image_candidates"] += len(target.domain) ** len(source.distinguished)
    c["homsolver.images_found"] += len(result)


def _count_reduced(c, args, result):
    c["cqdef.reduced_elements"] += len(result.structure.domain)


def _count_digraph(c, args, result):
    c["normalform.output_elements"] += sum(
        len(s.domain) for s in (*result.factors, result.target)
    )


COUNTERS = {
    "core.product": _count_product,
    "homsolver.find_homomorphism": _count_csp,
    "homsolver.image_witnesses": _count_images,
    "cqdef.reduce": _count_reduced,
    "normalform.digraph_transform": _count_digraph,
}

# counters reported as per-layer metrics of unit "count"
COUNTER_NAMES = (
    "core.product_elements",
    "core.product_tuples",
    "homsolver.variables",
    "homsolver.constraints",
    "homsolver.image_candidates",
    "cqdef.reduced_elements",
    "normalform.output_elements",
)
# counters that only feed a derived metric (homsolver.image_hit_ratio)
INTERNAL_COUNTERS = ("homsolver.images_found",)


class Recorder:
    """Open spans on a stack; per layer, the number of spans and total and self seconds."""

    def __init__(self):
        self.stack = []  # per open span: seconds covered by its finished child spans
        self.layers = {}  # layer -> [spans, total seconds, self seconds]
        self.counters = dict.fromkeys(COUNTER_NAMES + INTERNAL_COUNTERS, 0)

    def wrap(self, layer, fn):
        count = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                inner = self.stack.pop()
                if self.stack:
                    self.stack[-1] += duration
                entry = self.layers.setdefault(layer, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - inner
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def summary(self):
        return {"layers": self.layers, "counters": self.counters}


def install():
    """Wrap every layer of the imported homforge package; returns the Recorder."""
    from homforge import cli, core, cqdef, homsolver, normalform

    owners = {
        "cli": cli,
        "cqdef": cqdef,
        "homsolver": homsolver,
        "normalform": normalform,
        "core.Homomorphism": core.Homomorphism,
    }
    recorder = Recorder()
    for (owner, attr), layer in LAYERS.items():
        target = owners[owner]
        setattr(target, attr, recorder.wrap(layer, getattr(target, attr)))
    return recorder
