"""One fresh interpreter of a benchmark pass.

    python3 bench/child.py cli STATS [--trace] -- ARGV...
    python3 bench/child.py lib OPS STATS [--trace]

Every form imports the package from ``src`` first and stamps the moment it
is ready.  ``cli`` then runs one command-line invocation, exactly as the
``weylorders`` entry point would, and exits with its code; ``lib`` runs the
library operations listed in the OPS file and times each.  STATS receives the
timings, the peak resident set size, the operation results and, with
``--trace``, the spans and counters.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
_start = time.perf_counter()
import weylorders.cli  # noqa: E402  (the import is what setup time measures)

IMPORT_S = time.perf_counter() - _start
READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

from weylorders import coincidence, compalg, orders, reconstruct, rootsystem, weylchar  # noqa: E402


def _scalar(v):
    if isinstance(v, compalg.Fp):
        return v.value
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    return v


def _octonion(o):
    return [_scalar(v) for v in o.x + o.y]


def _albert(a):
    return [_octonion(o) for row in a.m for o in row]


def _field(p):
    return compalg.PrimeField(p) if p else compalg.RationalField()


def _make_octonion(field, coords):
    vals = [field.from_int(v) if isinstance(v, int) else Fraction(*v) for v in coords]
    return compalg.Octonion(tuple(vals[:4]), tuple(vals[4:]))


def _side(s):
    return rootsystem.SemisimpleType(()) if s == "1" else rootsystem.parse_type(s)


def op_verify_determination(op, env):
    return reconstruct.verify_determination(op["rank"], alphabet=op["alphabet"]).to_json()


def op_roundtrip(op, env):
    t = rootsystem.parse_type(op["type"])
    fam = reconstruct.CharPolyFamily(weylchar.charpolys(t).poly_set(), t.rank)
    return {"type": rootsystem.render(reconstruct.reconstruct(fam))}


def op_recognize(op, env):
    hits = orders.recognize_order(int(op["order"]), op["rank_bound"])
    return {"matches": [[rootsystem.render(t), q] for t, q in hits]}


def op_decompose(op, env):
    word = coincidence.decompose(coincidence.reduce(_side(op["left"]), _side(op["right"])))
    return {"word": [list(letter) for letter in word]}


def op_two_factor_pairs(op, env):
    pairs = coincidence.enumerate_two_factor_pairs(op["rank_bound"])
    return {"pairs": [[rootsystem.render(p.left), rootsystem.render(p.right)] for p in pairs]}


def op_oct_pair(op, env):
    field = _field(op["p"])
    a, b = _make_octonion(field, op["a"]), _make_octonion(field, op["b"])
    return {"ab": _octonion(compalg.oct_mul(a, b)),
            "a_conj_a": _octonion(compalg.oct_mul(a, compalg.oct_conj(a)))}


def _albert_element(field, coords):
    gamma = tuple(field.from_int(g) for g in (1, -1, 1))
    return compalg.albert_from_coords(
        field, gamma, tuple(field.from_int(v) for v in coords["xs"]),
        tuple(_make_octonion(field, c) for c in coords["cs"]))


def op_albert_pair(op, env):
    field = compalg.PrimeField(7)
    x, y = _albert_element(field, op["x"]), _albert_element(field, op["y"])
    return {"xy": _albert(compalg.albert_mul(x, y)), "yx": _albert(compalg.albert_mul(y, x)),
            "q": _scalar(compalg.albert_q(x))}


def op_e0_form(op, env):
    field = compalg.PrimeField(7)
    if "e0" not in env:
        env["e0"] = compalg.e0_basis(field)
    value = env["e0"].form(field.from_int(op["x"]), _make_octonion(field, op["c"]))
    return {"value": _scalar(value)}


OPS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


def _stats(trace, started, results=None, op_s=None):
    return {
        "import_s": IMPORT_S,
        "ready": READY,
        "started": started,
        "done": time.monotonic(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "results": results,
        "op_s": op_s,
        "trace": trace.dump() if trace else None,
    }


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv):
    mode, tracing = argv[0], "--trace" in argv
    trace = None
    if tracing:
        import tracer
        trace = tracer.install()
    started = time.monotonic()
    if mode == "cli":
        stats_path, cli_argv = argv[1], argv[argv.index("--") + 1:]
        try:
            code = weylorders.cli.run(cli_argv)
        except Exception:  # an uncaught error is a failed operation, not a crash of the bench
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        _write(stats_path, _stats(trace, started))
        return code
    ops_path, stats_path = argv[1], argv[2]
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    results, op_s, env = [], [], {}
    for index, op in enumerate(ops):
        if trace:
            trace.op = index
        start = time.perf_counter()
        try:
            results.append(OPS[op["kind"]](op, env))
        except Exception as exc:  # counted as a failed operation by the runner
            results.append({"error": f"{type(exc).__name__}: {exc}"[:300]})
        op_s.append(time.perf_counter() - start)
    _write(stats_path, _stats(trace, started, results, op_s))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
