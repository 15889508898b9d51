"""homforge benchmark: certified verdict time, decided share and memory per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

    tiling-checker  reduce tiling + check-hom --witness on checkerboard tilings, m = 3, 4, 5
    tiling-random   the same two calls on seeded random tile systems, m = 4, 5
    cqdef-chain     reduce digraph, reduce php-to-cqdef, cqdef check --witness
                    (and cq eval of a Definable answer) on the criterion-8 corpus

One closed-loop client runs one op at a time.  A worker process imports
homforge.cli once and runs every CLI call of an op in a fresh fork (see
worker.py).  The bench decides every instance itself beforehand (oracle.py)
and checks each verdict and certificate after the op, outside the timed
region.  Ops run in blocks of fixed composition, whole blocks only: a run
stops at the block boundary nearest --seconds of wall time, but an untraced
run not before MIN_OPS ops.  Worker start-ups for setup_s are timed every
SETUP_EVERY_S seconds between ops, so they sample the whole run.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 every call runs once plain and once with per-layer spans
(layertrace.py), and the last line holds the per-layer metrics.  The lines
before it are a readable report.  Exits 2 without a result when the checkout
holds no homforge sources.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import corpus
import layertrace
import oracle
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# An untraced run goes on past --seconds until it has this many ops, so that
# at least ten samples lie beyond p90.
MIN_OPS = 100
# setup_s is the median of worker start-ups timed this often between ops, and
# of at least SETUP_MIN of them.
SETUP_EVERY_S = 2.0
SETUP_MIN = 5

# Ops per block.  Shares are fixed so that every run of a workload measures
# the same mix; p50 and p90 each fall inside one class, not on a boundary
# between two, and failed ops stay below a tenth so p90 is a measured time.
CHECKER_BLOCK = {3: 12, 4: 7, 5: 1}
RANDOM_BLOCK = {(4, False): 24, (5, False): 14, (4, True): 1, (5, True): 1}
CHAIN_COUNT = 30
CHAIN_SEED = 1008  # the acceptance suite's seed for the criterion-8 corpus


class Worker:
    """The single worker process; one JSON request and answer per line."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), SRC],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = json.loads(self.proc.stdout.readline() or "null")
        if not ready or not ready["homforge"].startswith(SRC + os.sep):
            self.close()
            raise RuntimeError(f"worker did not import homforge from {SRC}: {ready}")

    def call(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=worker.LIMIT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_seconds():
    """Seconds from spawning a worker until its import of homforge.cli returns."""
    start = time.perf_counter()
    probe = Worker()
    seconds = time.perf_counter() - start
    probe.close()
    return seconds


# --- one op ------------------------------------------------------------------


class Op:
    """The calls of one op, their timing and the op's classification.

    ``outcome`` ends as "decided" (verdict agrees with the reference and its
    certificate checks), "wrong" (exit 0 or 1 with the verdict opposite to
    the reference; an uncaught exception exits 1 and counts here) or
    "failed" (exit 2 or 3, a signal, the time limit, or a certificate that
    does not check).  ``bad_output`` marks an answer document the program
    printed that the reference or the certificate check contradicts.
    """

    def __init__(self, kind, workdir, client, trace):
        self.kind = kind
        self.workdir = workdir
        self.client = client
        self.trace = trace
        self.seconds = 0.0
        self.maxrss_kb = 0
        self.outcome = None
        self.reason = ""
        self.bad_output = False
        self.plain_main_s = 0.0
        self.layers = {}
        self.counters = {}
        self.stdout_bytes = 0
        self.calls = 0

    def run(self, argv):
        """Run one CLI call; (exit code, stdout text, stderr path), or None if killed."""
        self.calls += 1
        base = os.path.join(self.workdir, f"call{self.calls}")
        request = {"argv": argv, "stdout": base + ".out", "stderr": base + ".err"}
        if not self.trace:
            answer = self.client.call(request)
            self.seconds += answer["elapsed"]
        else:
            # plain and traced runs alternate which goes first, so neither
            # always finds the input files in the page cache
            plain_request = dict(
                request,
                stdout=base + ".plain.out",
                stderr=base + ".plain.err",
                meta=base + ".plain",
            )
            request.update(trace=True, meta=base + ".meta")
            if self.calls % 2:
                plain = self.client.call(plain_request)
                answer = self.client.call(request)
            else:
                answer = self.client.call(request)
                plain = self.client.call(plain_request)
            self.seconds += plain["elapsed"]
            self.plain_main_s += _read_json(base + ".plain", {}).get("main_s", 0.0)
            meta = _read_json(base + ".meta", {})
            _add_spans(
                self.layers, self.counters, meta.get("layers", {}), meta.get("counters", {})
            )
        self.maxrss_kb = max(self.maxrss_kb, answer["maxrss_kb"])
        with open(base + ".out", encoding="utf-8") as fh:
            out = fh.read()
        self.stdout_bytes += len(out.encode())
        if answer["signal"] is not None:
            killed = answer["signal"]
            reason = "time limit" if killed == signal.SIGALRM else f"signal {killed}"
            return self.fail(f"{argv[0]}: {reason}")
        return answer["code"], out, base + ".err"

    def fail(self, reason, bad_output=False):
        self.outcome, self.reason = "failed", reason
        self.bad_output |= bad_output

    def step(self, argv):
        """A reduction call: True if it exits 0; otherwise classifies the op."""
        result = self.run(argv)
        if result is None:
            return False
        code, _, err = result
        if code == 0:
            return True
        if code == 1:
            self.outcome, self.reason = "wrong", f"{argv[0]} {argv[1]}: {_last_line(err)}"
        else:
            self.fail(f"{argv[0]} {argv[1]}: exit {code}")
        return False

    def verdict(self, argv, expected_yes, yes_answer):
        """The deciding call; returns its answer document when it is the expected verdict."""
        result = self.run(argv)
        if result is None:
            return None
        code, out, err = result
        if code not in (0, 1):
            self.fail(f"{argv[0]}: exit {code}")
            return None
        try:
            doc = json.loads(out)
            answer = doc["answer"]
        except (ValueError, TypeError, KeyError):
            # exit 1 with no answer is an uncaught exception, which the CLI reports as NO
            if code == 1:
                self.outcome, self.reason = "wrong", f"{argv[0]}: {_last_line(err)}"
            else:
                self.fail(f"{argv[0]}: exit 0 without an answer", bad_output=True)
            return None
        if (answer == yes_answer) != (code == 0):
            self.fail(f"{argv[0]}: answer {answer} with exit {code}", bad_output=True)
            return None
        if (code == 0) != expected_yes:
            self.outcome, self.reason = "wrong", f"{argv[0]}: {answer}, reference disagrees"
            self.bad_output = True
            return None
        return doc

    def certified(self, fault):
        if fault is None:
            self.outcome = "decided"
        else:
            self.fail(f"certificate: {fault}", bad_output=True)


def _add_spans(layers, counters, more_layers, more_counters):
    """Add per-layer [spans, total s, self s] and counters into running totals."""
    for layer, values in more_layers.items():
        entry = layers.setdefault(layer, [0, 0.0, 0.0])
        for i, value in enumerate(values):
            entry[i] += value
    for name, value in more_counters.items():
        counters[name] = counters.get(name, 0) + value


def _read_json(path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return default


def _last_line(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1][:120] if lines else "no message"


def tiling_op(op, case):
    """reduce tiling, then check-hom --witness on the factors in numeric order."""
    system_file, prefix, grid = case["system_file"], case["prefix"], case["grid"]
    m = len(prefix)
    out_dir = os.path.join(op.workdir, "php")
    factors = [os.path.join(out_dir, f"factor_{i}.json") for i in range(1, 2 * m + 1)]
    target = os.path.join(out_dir, "target.json")
    argv = ["reduce", "tiling", "--system", system_file, "--prefix", *prefix]
    if not op.step(argv + ["--out-dir", out_dir]):
        return
    doc = op.verdict(
        ["check-hom", *factors, "--target", target, "--witness"], grid is not None, "YES"
    )
    if doc is None:
        return
    if grid is None:
        op.certified(None)
        return
    try:
        decoded = oracle.decode_tiling_witness(doc.get("witness", {}), m)
    except ValueError as exc:
        op.certified(str(exc))
        return
    op.certified(oracle.check_grid(case["system"], prefix, decoded))


def chain_op(op, case):
    """reduce digraph, reduce php-to-cqdef, cqdef check --witness, and cq eval if Definable."""
    dg = os.path.join(op.workdir, "digraph")
    cq = os.path.join(op.workdir, "cqdef")
    k = len(case["factor_files"])
    dg_factors = [os.path.join(dg, f"factor_{i}.json") for i in range(1, k + 1)]
    dg_target = os.path.join(dg, "target.json")
    instance = os.path.join(cq, "instance.json")
    relation = os.path.join(cq, "relation.json")
    steps = [
        ["reduce", "digraph", *case["factor_files"], "--target", case["target_file"]]
        + ["--out-dir", dg],
        ["reduce", "php-to-cqdef", *dg_factors, "--target", dg_target, "--out-dir", cq],
    ]
    for argv in steps:
        if not op.step(argv):
            return
    # a YES instance of PHP is exactly a NotDefinable instance of CQ-definability
    doc = op.verdict(
        ["cqdef", "check", instance, "--relation", relation, "--witness"],
        not case["php_yes"],
        "Definable",
    )
    if doc is None:
        return
    s_tuples = {tuple(t) for t in _read_json(relation, [])}
    if doc["answer"] == "NotDefinable":
        try:
            structure = oracle.load_structure_file(instance)
            op.certified(oracle.check_not_definable(doc, structure, s_tuples))
        except (KeyError, TypeError, ValueError) as exc:
            op.certified(f"malformed certificate: {exc!r}")
        return
    if not isinstance(doc.get("query"), dict):
        op.certified("Definable answer without a query")
        return
    query = os.path.join(op.workdir, "query.json")
    _write_json(query, doc["query"])
    result = op.run(["cq", "eval", query, instance])
    if result is None:
        return
    code, out, _ = result
    answers = _read_json_text(out).get("answers")
    if code != 0:
        op.fail(f"cq eval of the returned query exited {code}")
    elif answers is None:
        op.certified("cq eval printed no answers")
    elif {tuple(t) for t in answers} != s_tuples:
        op.certified("cq eval of the returned query does not give exactly S")
    else:
        op.certified(None)


def _read_json_text(text):
    try:
        doc = json.loads(text)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


# --- workloads: seeded blocks of cases ---------------------------------------


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _input_file(inputs, data):
    """Write data to the next numbered file under inputs; returns its path."""
    path = os.path.join(inputs, f"{len(os.listdir(inputs))}.json")
    _write_json(path, data)
    return path


def checker_block(rng, inputs):
    """Checkerboard systems with prefix w, k, w, ...; every instance is YES."""
    system_file = _input_file(inputs, corpus.CHECKER)
    cases = []
    for m, count in CHECKER_BLOCK.items():
        prefix = corpus.checker_prefix(m)
        grid = oracle.grid_tiling(corpus.CHECKER, prefix)
        case = {
            "kind": f"m={m}",
            "system": corpus.CHECKER,
            "system_file": system_file,
            "prefix": prefix,
            "grid": grid,
        }
        cases += [case] * count
    rng.shuffle(cases)
    return cases, tiling_op


def random_block(rng, inputs):
    """Seeded random tile systems, drawn until each (m, verdict) quota is met."""
    need = dict(RANDOM_BLOCK)
    cases = []
    while any(need.values()):
        m = rng.choice(sorted({m for m, _ in need}))
        system = corpus.random_tile_system(rng)
        prefix = corpus.random_prefix(rng, system, m)
        try:
            grid = oracle.grid_tiling(system, prefix)
        except oracle.Undecided:
            continue  # the reference cannot check this draw
        key = (m, grid is not None)
        if not need[key]:
            continue
        need[key] -= 1
        cases.append(
            {
                "kind": f"m={m} {'YES' if grid else 'NO'}",
                "system": system,
                "system_file": _input_file(inputs, system),
                "prefix": prefix,
                "grid": grid,
            }
        )
    rng.shuffle(cases)
    return cases, tiling_op


def chain_block(rng, inputs):
    """The criterion-8 corpus under a seeded, order-preserving renaming, in seeded order.

    Each element name gets a random suffix; no name is a prefix of another,
    so the canonical order the program sorts by, and with it the search, is
    the acceptance suite's, while the files the program reads change with
    the seed.
    """
    cases = []
    tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
    for factors, target in corpus.chain_corpus(CHAIN_SEED, CHAIN_COUNT):
        files = [
            _input_file(inputs, corpus.structure_json(corpus.rename(s, tag)))
            for s in (*factors, target)
        ]
        cases.append(
            {
                "kind": f"{len(factors)} factor{'s' if len(factors) > 1 else ''}",
                "factor_files": files[:-1],
                "target_file": files[-1],
                "php_yes": oracle.php_exists(factors, target),
            }
        )
    rng.shuffle(cases)
    return cases, chain_op


WORKLOADS = {
    "tiling-checker": checker_block,
    "tiling-random": random_block,
    "cqdef-chain": chain_block,
}


# --- metrics -----------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(ops, setup_s):
    # a failed or wrong op counts as the time limit: above every decided op
    times = [op.seconds if op.outcome == "decided" else worker.LIMIT_S for op in ops]
    decided = sum(op.outcome == "decided" for op in ops)
    return {
        "verdict_s.p50": (percentile(times, 0.5), "s"),
        "verdict_s.p90": (percentile(times, 0.9), "s"),
        "decided_per_s": (decided / sum(op.seconds for op in ops), "1/s"),
        "decided_share": (decided / len(ops), "fraction"),
        "peak_rss_mb": (max(op.maxrss_kb for op in ops) / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(ops):
    layers, counters = {}, {}
    for op in ops:
        _add_spans(layers, counters, op.layers, op.counters)
    main_s = layers.get(layertrace.ROOT, [0, 0.0, 0.0])[1]
    metrics = {"cli.main_s": (main_s, "s")}
    for layer in dict.fromkeys(layertrace.LAYERS.values()):
        own = layers.get(layer, [0, 0.0, 0.0])[2]
        metrics[layer + "_s"] = (own, "s")
        metrics[layer + "_share"] = (own / main_s if main_s else 0.0, "fraction")
    metrics["cli.stdout_bytes"] = (sum(op.stdout_bytes for op in ops), "bytes")
    for name in layertrace.COUNTER_NAMES:
        metrics[name] = (counters.get(name, 0), "count")
    candidates = counters.get("homsolver.image_candidates", 0)
    found = counters.get("homsolver.images_found", 0)
    metrics["homsolver.image_hit_ratio"] = (found / candidates if candidates else 0.0, "ratio")
    plain = sum(op.plain_main_s for op in ops)
    metrics["trace.overhead_ratio"] = (main_s / plain if plain else 0.0, "ratio")
    return metrics


# --- the run -----------------------------------------------------------------


def run(workload, seed, seconds, trace, workdir):
    """Run whole blocks until the boundary nearest ``seconds``; (ops, blocks, setup_s)."""
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    make_block = WORKLOADS[workload]
    start = time.perf_counter()
    # this first start-up also writes the bytecode caches, so it is not timed
    client = Worker()
    ops, blocks, setups = [], 0, []
    last_setup = time.perf_counter()
    try:
        while True:
            cases, run_op = make_block(random.Random(f"{seed}/{blocks}"), inputs)
            blocks += 1
            for case in cases:
                if not trace and time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    setups.append(setup_seconds())
                    last_setup = time.perf_counter()
                opdir = os.path.join(workdir, f"op{len(ops)}")
                os.makedirs(opdir)
                op = Op(case["kind"], opdir, client, trace)
                run_op(op, case)
                ops.append(op)
                shutil.rmtree(opdir)
            elapsed = time.perf_counter() - start
            # stop here unless the next boundary is nearer to --seconds
            if elapsed + elapsed / blocks / 2 >= seconds and (trace or len(ops) >= MIN_OPS):
                break
    finally:
        client.close()
    if trace:
        return ops, blocks, None
    while len(setups) < SETUP_MIN:
        setups.append(setup_seconds())
    return ops, blocks, statistics.median(setups)


def report(workload, seed, trace, ops, blocks, metrics):
    counts = {o: sum(op.outcome == o for op in ops) for o in ("decided", "wrong", "failed")}
    print(f"workload {workload}  seed {seed}  trace {trace}  blocks {blocks}  ops {len(ops)}")
    print(
        f"  decided {counts['decided']}  wrong verdict {counts['wrong']}"
        f"  failed {counts['failed']}  (not decided: {len(ops) - counts['decided']})"
    )
    if not trace:
        print(f"  wrong_verdict_share {counts['wrong'] / len(ops):.4f} fraction")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    for kind, group in sorted(by_kind.items()):
        secs = [op.seconds for op in group]
        print(
            f"  [{kind}] n={len(group)} median {statistics.median(secs):.4f} s"
            f" max {max(secs):.4f} s"
        )
        reasons = {}
        for op in group:
            if op.outcome != "decided":
                reasons[(op.outcome, op.reason)] = reasons.get((op.outcome, op.reason), 0) + 1
        for (outcome, reason), n in sorted(reasons.items()):
            print(f"      {n} x {outcome}: {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homforge", "cli.py")):
        print(f"no homforge sources under {SRC}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        ops, blocks, setup_s = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)  # unless another run still uses it
        except OSError:
            pass
    metrics = per_layer(ops) if args.trace else end_to_end(ops, setup_s)
    report(args.workload, args.seed, args.trace, ops, blocks, metrics)
    result = {
        "correct": not any(op.bad_output for op in ops),
        "attempted": len(ops),
        "failed": sum(op.outcome != "decided" for op in ops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
