"""Command-line interface.

Verbs: gen, count, oracle, analyze, bethe, verify, export.  Trees move
between commands as canonical JSON on stdin/stdout, so the verbs
compose:

    growcount gen comb --bonds 6 | growcount count

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3
resource guard tripped.  A guard on a tree read from stdin, or on the
oracle's enumeration, exits 3; a guard on requested parameters (gen,
analyze, bethe) is invalid input and exits 2, and so is a negative
--cap.  The size guards of count, oracle and export count the bonds
before any is checked: in long canonical text before any number is
converted, in other text once it is decoded.  Big integers in JSON
output are decimal strings; everything printed is deterministic, byte
for byte, for the same inputs.
"""

import argparse
import functools
import json
import math
import sys

from . import analytics, bethe, core, render, verify
from .core import (
    enumerate_growth_orders,
    prime_exponents,
    prime_power_digits,
    random_lattice_tree,
    tree_from_json,
    tree_to_json,
)
from .errors import (
    CapExceeded,
    GrowcountError,
    TooLarge,
)
from .generators import (
    tower_params,
    tower_tree,
    comb_tree,
    custom_hierarchical_tree,
    path_tree,
)

# the verbs whose guards (TooLarge, CapExceeded) exit 3, not 2
_STDIN_VERBS = ("count", "oracle", "export")
ORACLE_FREE_LIMIT = 12   # beyond this, `oracle` insists on --cap
# analyze reports a larger L by its bit length only; the limit keeps
# analyze's output small and unchanged.  An L this size prints through
# core.prime_power_digits in about 2.7 ms, where str() takes about 23 ms
# once main lifts the digit cap (CPython 3.11.7, best of 5).
PRINT_INT_BITS = 2 ** 17


def _emit(payload: dict) -> int:
    print(json.dumps(payload, separators=(",", ":")))
    return 0


def _read_tree(max_bonds):
    # in a list, which tree_from_json empties once the bonds are read,
    # so the text is freed before they are packed
    return tree_from_json([sys.stdin.read()], max_bonds)


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") \
            from exc


def cmd_gen(args) -> int:
    if args.kind == "path":
        _need(args, "bonds")
        tree = path_tree(args.bonds)
    elif args.kind == "comb":
        _need(args, "bonds")
        tree = comb_tree(args.bonds)
    elif args.kind == "tower":
        _need(args, "a0", "gen")
        tree = tower_tree(tower_params(args.a0, args.gen))
    elif args.kind == "random":
        _need(args, "bonds")
        tree = random_lattice_tree(args.bonds, seed=args.seed)
    else:   # custom
        _need(args, "ells")
        bs = _csv_ints(args.bs) if args.bs is not None else ()
        tree = custom_hierarchical_tree(_csv_ints(args.ells), bs)
    tree_to_json(tree, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _need(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"gen {args.kind} requires --{name}")


def cmd_count(args) -> int:
    tree = _read_tree(core.MAX_TREE_BONDS)
    bonds, hooks = tree.bond_count, tree.hooks
    del tree   # its keys, before the sieve
    primes, w, n = prime_exponents(bonds, hooks)
    del hooks   # before the digits
    return _emit({"L": bonds, "W": prime_power_digits(primes, w),
                  "N": prime_power_digits(primes, n)})


def cmd_oracle(args) -> int:
    tree = _read_tree(core.MAX_TREE_BONDS)
    if tree.bond_count > ORACLE_FREE_LIMIT and args.cap is None:
        raise ValueError(
            f"L={tree.bond_count} needs an explicit --cap beyond "
            f"L={ORACLE_FREE_LIMIT}"
        )
    n = enumerate_growth_orders(tree, cap=args.cap)
    return _emit({"N_enumerated": str(n)})


def cmd_analyze(args) -> int:
    # a bad generation is reported before a bad seed, which tower_params
    # would check first
    if args.gen < 1:
        raise ValueError("generation must be >= 1")
    params = tower_params(args.a0, args.gen)
    report = analytics.verify_main_bound(params, args.gen)
    # structure_fractions checks the bond count by both routes, in either
    # mode; past the integer horizon exact mode's weight guard refuses
    structure = (
        analytics.structure_fractions(params, args.gen)
        if args.gen >= 2 else None
    )
    if args.mode == "exact":
        log_w = math.log(
            analytics.weight_upper_bound(params, args.gen, mode="exact")
        )
    else:
        log_w = report.log_weight
    total = params.bond_pair(args.gen)
    payload = report.to_dict()
    payload["mode"] = args.mode
    printable = total is not None and total.bit_length() <= PRINT_INT_BITS
    payload["L"] = (prime_power_digits((total.odd, 2), (1, total.exp))
                    if printable else None)
    payload["Lbits"] = total.bit_length() if total is not None else None
    payload["logW"] = log_w
    payload["structure"] = structure.to_dict() if structure else None
    return _emit(payload)


def cmd_bethe(args) -> int:
    return _emit(bethe.bethe_existence_bound(args.bonds).to_dict())


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    checks = verify.run_suites(names)
    failed = [c for c in checks if not c.ok]
    for c in checks:
        mark = "ok  " if c.ok else "FAIL"
        tail = f"  ({c.detail})" if c.detail else ""
        print(f"[{mark}] {c.name}{tail}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_export(args) -> int:
    svg = args.format == "svg"
    tree = _read_tree(render.MAX_SVG_BONDS if svg else core.MAX_TREE_BONDS)
    sys.stdout.write(render.to_svg(tree) if svg else render.to_dot(tree))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    call to main; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="growcount",
        description="Exact growth-order counting for rooted lattice trees.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a tree as canonical JSON")
    p.add_argument("kind", choices=("path", "comb", "tower", "random", "custom"))
    p.add_argument("--bonds", type=int, help="bond count (path, comb, random)")
    p.add_argument("--a0", type=int, help="tower seed (tower)")
    p.add_argument("--gen", type=int, help="generation (tower)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (random)")
    p.add_argument("--ells", help="backbone lengths, comma-separated (custom)")
    p.add_argument("--bs", help="branch counts, comma-separated (custom)")

    sub.add_parser("count", help="exact W and N for a tree on stdin")

    p = sub.add_parser("oracle", help="brute-force growth-order count")
    p.add_argument("--cap", type=int, help="abort once the count passes this")

    p = sub.add_parser("analyze", help="constants and certified margins")
    p.add_argument("--a0", type=int, default=20)
    p.add_argument("--gen", type=int, default=2)
    p.add_argument("--mode", choices=("exact", "log"), default="log")

    p = sub.add_parser("bethe", help="Bethe-lattice pigeonhole report")
    p.add_argument("--bonds", type=int, required=True)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument(
        "--suite", choices=("core", "tower", "bethe", "all"), default="all"
    )

    p = sub.add_parser("export", help="render a tree from stdin")
    p.add_argument("--format", choices=("dot", "svg"), required=True)

    return parser


def main(argv=None) -> int:
    try:   # exact counts overflow the default digit cap quickly
        sys.set_int_max_str_digits(0)
    except AttributeError:
        pass
    args = build_parser().parse_args(argv)
    try:
        # verb VERB runs cmd_VERB, looked up now rather than bound into the
        # parser, which is built once: a wrapper set on a cmd_* name after
        # that (perfbench's tracer sets them) still sees the call
        return globals()[f"cmd_{args.verb}"](args)
    except (GrowcountError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        guard = isinstance(exc, (TooLarge, CapExceeded))
        return 3 if guard and args.verb in _STDIN_VERBS else 2


if __name__ == "__main__":
    raise SystemExit(main())
