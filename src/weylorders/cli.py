"""Command-line front end: JSON emission and persistent table caching.

Results go to standard output as JSON with stable ordering; a short human
summary goes to standard error.  Exit codes: 0 success, 1 verification or
computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from random import Random
from typing import Dict, Iterable, List, Optional

from . import coincidence, compalg, orders, reconstruct, weylchar
from .cyclotomic import CycloProduct
from .errors import CacheInvalid, TypeParseError, WeylOrdersError
from .rootsystem import (
    EXCEPTIONAL,
    SemisimpleType,
    SimpleType,
    parse_type,
    render,
    simple_types,
)
from .weylchar import CharPolyTable

CACHE_VERSION = 1


# --- cache files ---------------------------------------------------------------


def _cache_path(dir_: Path, type_label: str) -> Path:
    return Path(dir_) / f"charpolys_v{CACHE_VERSION}_{type_label}.json"


def cache_store(table: CharPolyTable, dir_: os.PathLike) -> Path:
    """Atomically write a single-factor table as JSON."""
    payload = _table_json(table)
    label = payload["type_label"] = payload.pop("type")
    payload["version"] = CACHE_VERSION
    dir_ = Path(dir_)
    dir_.mkdir(parents=True, exist_ok=True)
    target = _cache_path(dir_, label)
    fd, tmp = tempfile.mkstemp(dir=dir_, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def cache_load(type_label: str, dir_: os.PathLike) -> Optional[CharPolyTable]:
    """Load a cached table, checked as it is built; None when the file is absent."""
    path = _cache_path(Path(dir_), type_label)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheInvalid(f"{path}: unreadable cache file ({exc})")
    if not isinstance(payload, dict):
        raise CacheInvalid(f"{path}: cache payload is not a JSON object")
    if payload.get("version") != CACHE_VERSION:
        raise CacheInvalid(f"{path}: cache format version mismatch")
    if payload.get("type_label") != type_label:
        raise CacheInvalid(f"{path}: type label mismatch")
    try:
        t = parse_type(type_label)
        order = int(payload["group_order"])
        entries: Dict[CycloProduct, int] = {}
        for item in payload["entries"]:
            poly = _poly_from_json(item["exps"])
            entries[poly] = entries.get(poly, 0) + int(item["count"])
    except (KeyError, ValueError, TypeError, AttributeError, TypeParseError) as exc:
        raise CacheInvalid(f"{path}: malformed cache payload ({exc})")
    try:
        table = CharPolyTable(t, entries)
        if order != table.group_order:
            raise ValueError(f"group order {order} is not {table.group_order}")
    except ValueError as exc:
        raise CacheInvalid(f"{path}: certificate failed: {exc}")
    return table


def _load_exceptional_tables(
    factors: Iterable[SimpleType], cache_dir: Optional[str]
) -> None:
    """With a cache directory, seed the in-process table registry from it,
    computing and persisting missing tables; without one, do nothing (tables
    are computed when first needed)."""
    if cache_dir is None:
        return
    for f in sorted(set(factors) & set(EXCEPTIONAL)):
        cached = cache_load(str(f), cache_dir)
        if cached is not None:
            weylchar.seed_table(cached)
        else:
            cache_store(weylchar.simple_table(f), cache_dir)


# --- JSON helpers ----------------------------------------------------------------


def _emit(doc, summary: str) -> None:
    json.dump(doc, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _poly_json(poly: CycloProduct) -> Dict[str, int]:
    return {str(d): t for d, t in poly.exps}


def _poly_from_json(exps: Dict[str, int]) -> CycloProduct:
    """The inverse of _poly_json; an exponent must be a JSON integer."""
    if any(type(t) is not int for t in exps.values()):
        raise TypeError(f"exponents must be integers: {exps}")
    return CycloProduct.from_mapping({int(d): t for d, t in exps.items()})


def _table_json(table: CharPolyTable) -> Dict:
    return {
        "type": render(table.type_label),
        "group_order": str(table.group_order),
        "entries": [
            {"exps": _poly_json(p), "count": str(c)}
            for p, c in sorted(table.entries.items(), key=lambda kv: kv[0].exps)
        ],
    }


def _pair_json(p: coincidence.CoincidencePair) -> Dict[str, str]:
    return {"left": render(p.left), "right": render(p.right)}


# --- subcommands -----------------------------------------------------------------


def _cmd_order(args) -> int:
    t = parse_type(args.type)
    fo = orders.order_factored(t, args.q)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # the order exceeds q^(2N) >= 2^(2N(b - 1)) for a q of b bits, and log10(2) > 0.30102
    digits = 2 * fo.n_exp * (fo.q.bit_length() - 1) * 30102 // 100000
    if limit and digits > limit:
        raise WeylOrdersError(
            f"|{render(t)}(F_{args.q})| has over {digits} decimal digits, "
            f"past the limit of {limit} digits for printing an integer"
        )
    value = fo.value()
    doc = {
        "type": render(t),
        "q": args.q,
        "order": str(value),
    }
    if args.factored:
        doc["factored"] = {
            "p": fo.p,
            "t": fo.t,
            "N": fo.n_exp,
            "degrees": list(fo.degrees),
        }
    _emit(doc, f"|{render(t)}(F_{args.q})| = {value}")
    return 0


def _cmd_charpolys(args) -> int:
    t = parse_type(args.type)
    _load_exceptional_tables(t.factors, args.cache)
    table = weylchar.charpolys(t)
    _emit(
        _table_json(table),
        f"{render(t)}: {len(table.entries)} distinct polynomials, "
        f"group order {table.group_order}",
    )
    return 0


def _cmd_invariants(args) -> int:
    t = parse_type(args.type)
    if args.mu is not None:  # mu comes from the degrees; no table needed
        doc = {"type": render(t), "i": args.mu, "mu": weylchar.mu(t, args.mu)}
        _emit(doc, f"mu_{args.mu}({render(t)}) = {doc['mu']}")
        return 0
    _load_exceptional_tables(t.factors, args.cache)
    if args.joint is not None:
        i, j = args.joint
        value = weylchar.mu_joint(t, i, j)
        doc = {"type": render(t), "i": i, "j": j, "mu_joint": value}
        _emit(doc, f"mu_{{{i},{j}}}({render(t)}) = {value}")
        return 0
    profile = weylchar.invariant_profile(t)
    doc = {
        "type": render(t),
        "index_bound": profile.index_bound,
        "mu": {str(i): v for i, v in sorted(profile.mu.items()) if v},
        "mu_prime": {str(i): v for i, v in sorted(profile.mu_prime.items()) if v},
        "mu_joint": {
            f"{i},{j}": v for (i, j), v in sorted(profile.mu_joint.items())
        },
    }
    _emit(doc, f"invariant profile of {render(t)}")
    return 0


def _cmd_reconstruct(args) -> int:
    raw = json.loads(Path(args.input).read_text(encoding="utf-8"))
    try:
        polys = frozenset(map(_poly_from_json, raw["polys"]))
        rank = raw["rank"]
        if type(rank) is not int:
            raise TypeError(f"rank {rank!r} is not an integer")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{args.input}: malformed family file ({exc!r})")
    fam = reconstruct.CharPolyFamily(polys, rank)
    t = reconstruct.reconstruct(fam)
    _emit({"type": render(t), "rank": t.rank}, f"reconstructed {render(t)}")
    return 0


def _cmd_coincide(args) -> int:
    pairs = coincidence.enumerate_two_factor_pairs(args.max_rank)
    doc = {"max_rank": args.max_rank, "pairs": [_pair_json(p) for p in pairs]}
    _emit(doc, f"{len(pairs)} two-factor pairs up to rank {args.max_rank}")
    return 0


def _cmd_decompose(args) -> int:
    try:
        left_s, right_s = args.pair.split(":")
    except ValueError:
        raise TypeParseError(f"--pair wants 'LEFT:RIGHT', got {args.pair!r}")
    pair = coincidence.reduce(parse_type(left_s), parse_type(right_s))
    word = coincidence.decompose(pair)
    doc = {
        "pair": _pair_json(pair),
        "word": [{"generator": gid, "sign": sign} for gid, sign in word],
    }
    _emit(doc, f"{pair} = product of {len(word)} generator letters")
    return 0


def _cmd_recognize(args) -> int:
    hits = orders.recognize_order(args.order, args.max_rank)
    doc = {
        "order": str(args.order),
        "max_rank": args.max_rank,
        "matches": [{"type": render(t), "q": q} for t, q in hits],
    }
    _emit(doc, f"{len(hits)} matches for order {args.order}")
    return 0


# --- verification suites -----------------------------------------------------------


def _max_rank(args, default: int) -> int:
    return default if args.max_rank is None else args.max_rank


def _suite_determination(args) -> Dict:
    rank_bound = _max_rank(args, 8)
    _load_exceptional_tables(simple_types(rank_bound, "GFE"), args.cache)
    return reconstruct.verify_determination(rank_bound).to_json()


def _suite_prop_counter(args) -> Dict:
    rank_bound = _max_rank(args, 6)
    mismatches: List[Dict] = []
    checked = 0
    for t in simple_types(rank_bound):
        for q in (q for q in range(2, 17) if _is_prime_power(q)):
            largest, witness = orders.p_contribution_is_largest(
                SemisimpleType.of(t), q
            )
            expected = orders.in_exception_list(t, q)
            checked += 1
            if largest == expected:
                mismatches.append(
                    {
                        "type": str(t),
                        "q": q,
                        "p_largest": largest,
                        "in_exception_list": expected,
                        "char_power": str(witness.char_power),
                        "rival_power": str(witness.rival_power),
                    }
                )
    return {"checked": checked, "mismatches": mismatches, "ok": not mismatches}


def _is_prime_power(q: int) -> bool:
    try:
        orders.split_prime_power(q)
        return True
    except WeylOrdersError:
        return False


def _suite_pairs(args) -> Dict:
    bound = _max_rank(args, 20)
    got = coincidence.enumerate_two_factor_pairs(bound)
    expected = coincidence.expected_two_factor_pairs(bound)
    got_keys = {str(p) for p in got}
    exp_keys = {str(p) for p in expected}
    return {
        "max_rank": bound,
        "found": [_pair_json(p) for p in got],
        "missing": sorted(exp_keys - got_keys),
        "unexpected": sorted(got_keys - exp_keys),
        "ok": got_keys == exp_keys,
    }


def _suite_group_axioms(args) -> Dict:
    report = coincidence.verify_group_axioms(100, _max_rank(args, 20))
    return report.to_json()


def _suite_compalg(args) -> Dict:
    rng = Random(20240601)
    failures: List[str] = []
    checks = 0
    fields = (compalg.RationalField(), compalg.PrimeField(7), compalg.PrimeField(11))
    for field in fields:
        unit = compalg.oct_unit(field)
        for _ in range(200):
            a = compalg.random_octonion(field, rng)
            b = compalg.random_octonion(field, rng)
            checks += 3
            if compalg.oct_norm(compalg.oct_mul(a, b)) != compalg.oct_norm(a) * compalg.oct_norm(b):
                failures.append("norm multiplicativity")
            if compalg.oct_mul(a, compalg.oct_conj(a)) != compalg.oct_scale(compalg.oct_norm(a), unit):
                failures.append("x conj(x) = N(x)")
            if compalg.oct_conj(compalg.oct_mul(a, b)) != compalg.oct_mul(
                compalg.oct_conj(b), compalg.oct_conj(a)
            ):
                failures.append("conj anti-automorphism")
    field = compalg.PrimeField(7)
    gamma = (field.one, -field.one, field.one)
    for _ in range(100):
        x = _random_albert(field, gamma, rng)
        y = _random_albert(field, gamma, rng)
        checks += 2
        if compalg.albert_mul(x, y) != compalg.albert_mul(y, x):
            failures.append("Jordan commutativity")
        compalg.albert_q(x)  # internal agreement assertion
    u = compalg.idempotent_u(field, gamma)
    checks += 2
    if compalg.albert_mul(u, u) != u:
        failures.append("u idempotent")
    one = field.one
    if compalg.albert_q(u) != one / (one + one):
        failures.append("Q(u) = 1/2")
    space = compalg.e0_basis(field)
    checks += 1
    if len(space.basis) != 9:
        failures.append("dim E0 = 9")
    return {"checks": checks, "failures": failures, "ok": not failures}


def _random_albert(field, gamma, rng):
    xs = tuple(field.random(rng) for _ in range(3))
    cs = tuple(compalg.random_octonion(field, rng) for _ in range(3))
    return compalg.albert_from_coords(field, gamma, xs, cs)


_SUITES = {
    "determination": _suite_determination,
    "prop-counter": _suite_prop_counter,
    "pairs": _suite_pairs,
    "group-axioms": _suite_group_axioms,
    "compalg": _suite_compalg,
}


def _cmd_verify(args) -> int:
    doc = _SUITES[args.suite](args)
    ok = bool(doc.get("ok"))
    _emit(doc, f"suite {args.suite}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


# --- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise TypeParseError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="weylorders", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="order of a finite semisimple group")
    p.add_argument("--type", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--factored", action="store_true")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("charpolys", help="characteristic polynomial table")
    p.add_argument("--type", required=True)
    p.add_argument("--cache", default=None, help="cache directory for tables")
    p.set_defaults(func=_cmd_charpolys)

    p = sub.add_parser("invariants", help="mu invariants of a type")
    p.add_argument("--type", required=True)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--joint", type=int, nargs=2, default=None)
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("reconstruct", help="type from a polynomial family")
    p.add_argument("--input", required=True, help="JSON family file")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("coincide", help="enumerate order-coincidence pairs")
    p.add_argument("--max-rank", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_coincide)

    p = sub.add_parser("decompose", help="decompose a pair into generators")
    p.add_argument("--pair", required=True, help='syntax "LEFT:RIGHT"')
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("recognize", help="types with a given order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--max-rank", type=_positive_int, default=None, help="only types of rank <= this")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--max-rank", type=_positive_int, default=None)
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TypeParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (WeylOrdersError, OSError, json.JSONDecodeError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
