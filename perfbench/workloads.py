"""Workloads of the benchmark and the checks on their outputs.

A workload is a short warm-up and a round of CLI calls.  Each call goes
through a `Runner` (see run.py), which times it, counts it as attempted
and counts it as failed when its exit code is wrong or its check
returns a message.  Every check takes a route that does not reuse the
code being timed: residues modulo a 61-bit prime, a subtree-size
product written here, closed-form totals and fixed expected strings.
"""

import json

P = (1 << 61) - 1   # a Mersenne prime

PATH_BONDS = 100_001   # one past render.MAX_SVG_BONDS, so the SVG guard fires
TOWER_A0, TOWER_GEN, TOWER_BONDS = 3, 2, 102_400
RANDOM_BONDS = 400
RANDOM_TREES = 32
ANALYZE_GRID = [(a0, gen) for a0 in range(1, 65) for gen in range(1, 9)]
BETHE_BONDS = 8
BETHE_TREES, BETHE_SEQUENCES = "11934", "1814400"
VERIFY_CHECKS = 17
VERIFY_SUMMARY = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"


def residue(digits: str) -> int:
    """A decimal string modulo P, nine digits at a time.

    Linear in the length, unlike int(str), which is quadratic on 3.11.
    """
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {digits[:20]!r}")
    head = len(digits) % 9 or 9
    r = int(digits[:head]) % P
    for i in range(head, len(digits), 9):
        r = (r * 1_000_000_000 + int(digits[i:i + 9])) % P
    return r


def factorial_residue(n: int) -> int:
    r = 1
    for k in range(2, n + 1):
        r = r * k % P
    return r


def weight_residue(tree_json: str) -> int:
    """W mod P from subtree site counts, without growcount.core.

    The weight of a bond is the number of sites beyond it, so W is the
    product of subtree sizes over every site but the root.
    """
    payload = json.loads(tree_json)
    adjacent = {}
    for a, b in payload["bonds"]:
        a, b = tuple(a), tuple(b)
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    root = tuple(payload["root"])
    parent = {root: None}
    order = [root]
    for site in order:   # breadth first; the list grows while it is read
        for nxt in adjacent[site]:
            if nxt not in parent:
                parent[nxt] = site
                order.append(nxt)
    size = dict.fromkeys(order, 1)
    w = 1
    for site in reversed(order[1:]):
        size[parent[site]] += size[site]
        w = w * size[site] % P
    return w


class Workload:
    """Base: subclasses define `warmup` and `round(run, index)`.

    Rounds with the same index make the same calls on the same inputs.
    `interpreter_bound` says whether the round is mostly interpreter
    work, whose speed run.probe() follows, so that its time is scaled to
    a nominal core speed; big-integer decimal output and division do not
    slow down with the probe, so those workloads report wall time.
    """

    interpreter_bound = False

    def __init__(self, seed: int, program):
        self.seed = seed
        self.program = program   # the imported growcount package
        self.counts = {}         # exact counts seen in the last round
        self.last_count = None   # the last `count` payload, for bit lengths

    def count_check(self, bonds: int, l_fact: int, expected_w):
        """Check `count`: L, W against `expected_w()` and N*W == L! mod P."""

        def check(out, err):
            payload = json.loads(out)
            if payload["L"] != bonds:
                return f"count: L={payload['L']}, expected {bonds}"
            w = residue(payload["W"])
            if w != expected_w():
                return "count: W differs from the independent weight mod p"
            if residue(payload["N"]) * w % P != l_fact:
                return "count: N*W differs from L! mod p"
            self.last_count = payload
            self.counts["core.bonds"] = bonds
            return None
        return check

    @staticmethod
    def guard_check(out, err):
        return "guard: refusal wrote to stdout" if out else None


class PathWorkload(Workload):
    """The deepest tree: W = L! and N = 1; decimal output dominates."""

    def __init__(self, seed, program):
        super().__init__(seed, program)
        l_fact = factorial_residue(PATH_BONDS)
        self.check = self.count_check(PATH_BONDS, l_fact, lambda: l_fact)

    def warmup(self, run):
        tree = run.call("gen", ["gen", "path", "--bonds", "200"], warm=True)
        run.call("count", ["count"], tree, warm=True)
        run.call("guard", ["export", "--format", "svg"], tree, warm=True)

    def round(self, run, index):
        tree = run.call("gen", ["gen", "path", "--bonds", str(PATH_BONDS)])
        run.call("count", ["count"], tree, check=self.check)
        run.call("guard", ["export", "--format", "svg"], tree, expect=3,
                 check=self.guard_check)


class TowerWorkload(Workload):
    """The paper's own family; the N = L!/W division does real work."""

    def __init__(self, seed, program):
        super().__init__(seed, program)
        params = program.generators.tower_params(TOWER_A0, TOWER_GEN)
        w = program.analytics.exact_weight(params, TOWER_GEN) % P
        self.check = self.count_check(
            TOWER_BONDS, factorial_residue(TOWER_BONDS), lambda: w)

    def warmup(self, run):
        tree = run.call("gen", ["gen", "tower", "--a0", "1", "--gen", "2"],
                        warm=True)
        run.call("count", ["count"], tree, warm=True)

    def round(self, run, index):
        tree = run.call("gen", ["gen", "tower", "--a0", str(TOWER_A0),
                                "--gen", str(TOWER_GEN)])
        run.call("count", ["count"], tree, check=self.check)


class RandomWorkload(Workload):
    """Random growth; generation is quadratic and dominates."""

    interpreter_bound = True

    def __init__(self, seed, program):
        super().__init__(seed, program)
        self.l_fact = factorial_residue(RANDOM_BONDS)

    def roundtrip(self, out, err):
        if not out.endswith("\n"):
            return "gen random: output does not end in a newline"
        text = out[:-1]
        core = self.program.core
        tree = core.tree_from_json(text)
        if tree.bond_count != RANDOM_BONDS:
            return f"gen random: L={tree.bond_count}, expected {RANDOM_BONDS}"
        if core.tree_to_json(tree) != text:
            return "gen random: output does not round-trip byte for byte"
        return None

    def warmup(self, run):
        tree = run.call("gen", ["gen", "random", "--bonds", "50", "--seed",
                                str(self.seed)], warm=True)
        run.call("count", ["count"], tree, warm=True)

    def round(self, run, index):
        # The cost of one 400-bond tree varies with its shape by about
        # 14% (the perimeter is rescanned and sorted every step), so
        # every round index grows new trees and a run averages over 32
        # shapes per round.  Call k of each round is a new tree of one
        # size.
        first = self.seed * 10_000 + index * RANDOM_TREES
        for seed in range(first, first + RANDOM_TREES):
            tree = run.call("gen", ["gen", "random", "--bonds",
                                    str(RANDOM_BONDS), "--seed", str(seed)],
                            check=self.roundtrip)
            check = self.count_check(RANDOM_BONDS, self.l_fact,
                                     lambda tree=tree: weight_residue(tree))
            run.call("count", ["count"], tree, check=check)


class CertifyWorkload(Workload):
    """The certificate and the Bethe chain; no large tree at all."""

    interpreter_bound = True

    def __init__(self, seed, program):
        super().__init__(seed, program)
        self.margins = []

    def analyze_check(self, out, err):
        margin = json.loads(out)["marginPerBond"]
        self.margins.append(margin)
        return None if margin >= 0 else f"analyze: margin {margin} < 0"

    def bethe_check(self, out, err):
        payload = json.loads(out)
        got = (payload["treeCount"], payload["growthCount"])
        if got != (BETHE_TREES, BETHE_SEQUENCES):
            return f"bethe: counts {got}"
        self.counts["bethe.trees"] = int(got[0])
        self.counts["bethe.sequences"] = int(got[1])
        return None

    def verify_check(self, out, err):
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        if last != VERIFY_SUMMARY:
            return f"verify: {last!r}"
        self.counts["verify.checks_ok"] = VERIFY_CHECKS
        return None

    def warmup(self, run):
        run.call("analyze", ["analyze", "--a0", "2", "--gen", "3"], warm=True)
        run.call("bethe", ["bethe", "--bonds", "4"], warm=True)
        run.call("verify", ["verify", "--suite", "bethe"], warm=True)

    def round(self, run, index):
        self.margins = []
        for a0, gen in ANALYZE_GRID:
            run.call("analyze",
                     ["analyze", "--a0", str(a0), "--gen", str(gen)],
                     check=self.analyze_check)
        # the share of grid points whose reported margin is above zero
        self.counts["analytics.points"] = len(ANALYZE_GRID)
        self.counts["analytics.certified_ratio"] = (
            sum(m > 0 for m in self.margins) / len(ANALYZE_GRID))
        run.call("bethe", ["bethe", "--bonds", str(BETHE_BONDS)],
                 check=self.bethe_check)
        run.call("verify", ["verify", "--suite", "all"],
                 check=self.verify_check)


WORKLOADS = {
    "path": PathWorkload,
    "tower": TowerWorkload,
    "random": RandomWorkload,
    "certify": CertifyWorkload,
}


def bit_counts(payload) -> dict:
    """Exact bit lengths of W and N from a `count` payload.

    int(str) is quadratic, so this runs once per traced run, untimed.
    """
    if payload is None:
        return {"core.w_bits": 0, "core.n_bits": 0}
    return {"core.w_bits": int(payload["W"]).bit_length(),
            "core.n_bits": int(payload["N"]).bit_length()}
