"""Seeded inputs for the three workloads and for the defect round.

Everything is drawn from ``random.Random`` seeded with a string, so one seed
gives byte-identical problem texts and argument lists.  Lists are built in
rounds with a fixed mix (every (p, L) pair, every kernel size and zone,
every subcommand), and a run stops only at the end of a round.

The timed workloads stay inside the domain where the package answers
correctly today (p L^2 <= CLEAN_PL2, n <= 250), so that no timed op fails
and a failure always means a regression.  The known defects live outside
it; ``domain_corpus`` and ``domain_kernels`` draw one fixed round from the
whole input domain, which a traced run checks and counts by cause.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import oracle

P_VALUES = (0.0, 1.0, 5.0, 20.0, 100.0)
L_RANGE = (0.5, 25.0)
L_STRATA = 12          # log-uniform strata of L per p value
CORPUS_ROUNDS = 32     # problems per (p, L) pair
# Timed pairs keep p L^2 at or below this.  The seed's lambda2 skips the
# least root from p L^2 of about 1700 on (ROADMAP item 2).
CLEAN_PL2 = 800.0

KERNEL_P = (0.0, 5.0, 50.0)

CLI_COMMANDS = ("spectrum", "check", "verify", "solve", "sweep", "greens")
CLI_ROUNDS = 8


def _num(x: float) -> str:
    # six significant digits keep the texts short and exactly reproducible
    return repr(float(f"{x:.6g}"))


@dataclass(frozen=True)
class Pair:
    p: float
    a: float
    length: float
    lam1: float
    lam1p: float
    lam2: float  # oracle least roots: lam2 < 0 < lam3
    lam3: float

    @property
    def b(self) -> float:
        return self.a + self.length

    @property
    def unit(self) -> str:
        """(t - a)/L as expression text."""
        shift = f"t + {_num(-self.a)}" if self.a < 0 else f"t - {_num(self.a)}" if self.a else "t"
        return f"({shift})/{_num(self.length)}"


def make_pairs(rng: random.Random, pl2_max: float | None = CLEAN_PL2) -> list[Pair]:
    """L_STRATA log-uniform L per p, on L_RANGE cut to p L^2 <= pl2_max."""
    pairs = []
    for p in P_VALUES:
        top = L_RANGE[1] if pl2_max is None or p == 0 else min(L_RANGE[1], math.sqrt(pl2_max / p))
        lo, hi = math.log(L_RANGE[0]), math.log(top)
        width = (hi - lo) / L_STRATA
        for s in range(L_STRATA):
            drawn = math.exp(lo + (s + rng.random()) * width)
            a = 0.0 if rng.random() < 0.5 else float(_num(-0.5 * drawn))
            # the problem text carries a and b, so the oracle uses b - a as parsed
            length = float(_num(a + drawn)) - a
            lam2, lam3 = oracle.thresholds(p, length)
            pairs.append(Pair(p, a, length, oracle.lambda_k(p, length, 1),
                              oracle.lambda_k(p, length, 2), lam2, lam3))
    return pairs


# ---------------------------------------------------------------------------
# coefficient ranges "in and around every rule's window", in units of lambda1


def _zone_range(rng: random.Random, pair: Pair, zone: str) -> tuple[float, float]:
    l1, l1p, m2, m3 = pair.lam1, pair.lam1p, -pair.lam2, pair.lam3
    u = rng.uniform
    if zone == "pos_window":          # (-lambda1, -lambda2]: Cor2_1_pos, Thm5_1
        lo = u(-0.9, 0.5) * l1
        return lo, u(lo, 0.95 * m2)
    if zone == "neg_window":          # [-lambda3, -lambda1): Cor2_1_neg, Thm5_2
        lo = u(-0.97 * m3, -1.1 * l1)
        return lo, u(lo, -1.05 * l1)
    if zone == "above":               # past -lambda2: uniqueness only
        lo = u(1.02, 2.0) * m2
        return lo, lo * u(1.0, 1.5)
    if zone == "below_neg":           # (-lambda1', -lambda3): Thm5_2 uniqueness
        lo = u(-0.97 * l1p, -1.03 * m3)
        return lo, u(lo, -1.02 * m3)
    # "deep": between -lambda_{k+1} and -lambda_k for k = 2, 3, 4
    k = rng.choice((2, 3, 4))
    top, bottom = -oracle.lambda_k(pair.p, pair.length, k), -oracle.lambda_k(pair.p, pair.length, k + 1)
    span = top - bottom
    lo = bottom + u(0.1, 0.5) * span
    return lo, lo + u(0.0, 0.4) * span


ZONES = ("pos_window", "neg_window", "above", "below_neg", "deep")
C_TEMPLATES = ("constant", "sin2", "cos", "tanh", "exp")


def _c_entry(pair: Pair, lo: float, hi: float, template: str) -> list[str]:
    shift = pair.unit
    if template == "constant" or hi <= lo:
        return ["c.kind = constant", f"c.value = {_num(0.5 * (lo + hi))}"]
    if template == "sin2":
        expr = f"{_num(lo)} + {_num(hi - lo)}*sin(pi*{shift})^2"
    elif template == "cos":
        expr = f"{_num(0.5 * (lo + hi))} + {_num(0.5 * (hi - lo))}*cos(2*pi*{shift})"
    elif template == "tanh":
        expr = f"{_num(lo)} + {_num((hi - lo) / math.tanh(3.0))}*tanh(3*{shift})"
    else:
        expr = f"{_num(lo)} + {_num((hi - lo) / (1.0 - math.exp(-1.0)))}*(exp(0 - {shift}) - {_num(math.exp(-1.0))})"
    return ["c.kind = expression", f"c.expr = {expr}"]


H_KINDS = ("positive", "positive_varying", "mixed", "nonpositive")


def _h_entry(rng: random.Random, pair: Pair, kind: str) -> tuple[list[str], float, float]:
    """Problem-file lines for h, h_min / h_max (0 unless h > 0), and sup |h|."""
    v = float(_num(rng.uniform(0.5, 5.0)))
    shift = pair.unit
    if kind == "positive":
        return ["h.kind = constant", f"h.value = {v!r}"], 1.0, v
    if kind == "positive_varying":
        return ["h.kind = expression", f"h.expr = {v!r}*(1 + 0.8*sin(pi*{shift}))"], 1.0 / 1.8, 1.8 * v
    if kind == "mixed":
        return ["h.kind = expression", f"h.expr = {v!r}*cos(pi*{shift})"], 0.0, v
    return ["h.kind = expression", f"h.expr = 0 - {v!r}*(1 + 0.5*sin(pi*{shift}))"], 0.0, 1.5 * v


@dataclass(frozen=True)
class CorpusProblem:
    text: str
    pair: Pair
    n: int


# One cycle of solve profiles: (n, method, zone or None for a drawn zone, moments).
# Fixed-point problems sit in the amplified-load window, which needs h > 0.
# Timed problems keep n <= 250: the seed's residual check in direct_solve
# is absolute, and the residual grows like n^4.  Over 3000 generated
# problems the largest residual reached 0.06 of the bound at n = 200, 0.37
# at n = 300 and 1.01 at n = 400 (ROADMAP item 3).
PROFILES = (
    (200, "direct", None, False),
    (250, "direct", None, True),
    (250, "direct", None, False),
    (200, "fixed-point", "amplified", False),
    (250, "direct", None, False),
    (200, "direct", None, True),
    (200, "superposition", None, False),
    (250, "fixed-point", "amplified", False),
    (200, "direct", None, True),
    (250, "fixed-point", "amplified", False),
    (250, "direct", None, False),
    (200, "direct", None, False),
)
# The defect round solves at n = 400 and 2000 instead; at n = 2000 the
# false ResonanceError hits about half of the problems.
DOMAIN_PROFILES = tuple(
    ((200, 400, 2000)[k % 3], method, zone, moments)
    for k, (_, method, zone, moments) in enumerate(PROFILES)
)


def _problem_text(rng: random.Random, pair: Pair, n: int, method: str, zone: str | None,
                  moments: bool) -> CorpusProblem:
    lines = [
        f"interval.a = {_num(pair.a)}",
        f"interval.b = {_num(pair.b)}",
        f"p = {_num(pair.p)}",
    ]
    extra = []
    if zone == "amplified":
        h_lines, ratio, h_sup = _h_entry(rng, pair, rng.choice(("positive", "positive_varying")))
        lo = rng.uniform(-0.8, 0.0) * pair.lam1
        room = ratio * (2.0 / math.pi) * (pair.lam1 + lo)   # Thm6_1 hypothesis 1
        # keep the part of c above -lambda2 under delta1 / (2 L), so the
        # operator-norm bound on the iteration's contraction stays below 1/2
        delta1 = max(4.0 * pair.p / pair.length, 4.0 * math.pi**2 / pair.length**3)
        hi = -pair.lam2 + rng.uniform(0.1, 0.8) * min(room, 0.5 * delta1 / pair.length)
        template = rng.choice(C_TEMPLATES[1:])
        # the step tolerance is absolute: the default 1e-10, scaled up with
        # sup|u| <~ sup h / (lambda1 + c_min)
        scale = h_sup / (pair.lam1 + lo)
        extra = [f"solver.tol = {_num(1e-10 * max(scale, 1.0))}"]
    else:
        zone = rng.choice(ZONES)
        h_lines, _, _ = _h_entry(rng, pair, rng.choice(H_KINDS))
        lo, hi = _zone_range(rng, pair, zone)
        template = rng.choice(C_TEMPLATES)
    lines += _c_entry(pair, lo, hi, template)
    lines += h_lines
    if moments:
        lines += [f"bc.d1 = {_num(-rng.uniform(0.0, 2.0))}", f"bc.d2 = {_num(-rng.uniform(0.0, 2.0))}"]
    lines += [f"grid.n = {n}", f"solver.method = {method}"] + extra
    return CorpusProblem("\n".join(lines) + "\n", pair, n)


def _corpus(rng: random.Random, pairs: list[Pair], rounds: int, profiles) -> list[CorpusProblem]:
    out = []
    j = 0
    for _ in range(rounds):
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for i in order:
            n, method, zone, moments = profiles[j % len(profiles)]
            out.append(_problem_text(rng, pairs[i], n, method, zone, moments))
            j += 1
    return out


def corpus(seed: int) -> list[CorpusProblem]:
    """CORPUS_ROUNDS rounds; each visits every (p, L) pair once in a shuffled order."""
    rng = random.Random(f"beamsign-corpus-{seed}")
    return _corpus(rng, make_pairs(rng), CORPUS_ROUNDS, PROFILES)


def domain_corpus(seed: int) -> list[CorpusProblem]:
    """One round over the whole domain: L up to L_RANGE[1] at every p, n up to 2000."""
    rng = random.Random(f"beamsign-domain-{seed}")
    return _corpus(rng, make_pairs(rng, None), 1, DOMAIN_PROFILES)


# ---------------------------------------------------------------------------
# kernels: dense Green's kernel tasks


@dataclass(frozen=True)
class KernelTask:
    n: int
    p: float
    length: float
    c_kind: str             # constant | variable
    m: float                # the constant, or the base of the variable coefficient
    amp: float              # amplitude of the variable part (0 for constant c)
    h_scale: float


# One cycle of kernel sizes.  n = 250 takes three ops in four, so the
# median and the 90th percentile sit inside the n = 250 group, away from
# the jump between sizes.  A round is four cycles, in which each size meets
# each coefficient zone.  The residual check in superposition_solve is
# absolute: over 240 tasks its largest residual reached 0.03 of the bound at
# n = 200 and 0.24 at n = 300, and it raises a false ResonanceError at
# n = 400 on some tasks and from n = 600 on in the zones with negative c.
# smallest_eigenvalue stops early at n = 800 and 1000 (ROADMAP items 2 and
# 3).  Those sizes are in the defect round.
KERNEL_CYCLE = (200, 250, 250, 250)
DOMAIN_KERNEL_CYCLE = (400, 600, 800, 1000)
KERNEL_ZONES = 4
KERNEL_ROUND = KERNEL_ZONES * len(KERNEL_CYCLE)


def _kernel_zone(zone: int, p: float) -> tuple[float, float]:
    lam1 = oracle.lambda_k(p, 1.0, 1)
    lam2, lam3 = oracle.thresholds(p, 1.0)
    # (-lambda1, 0) and [0, -lambda2]: positive kernel; [-lambda3, -lambda1):
    # negative kernel; past -lambda2 the kernel changes sign
    return ((-0.9 * lam1, -0.1 * lam1), (0.0, 0.9 * -lam2),
            (-0.97 * lam3, -1.1 * lam1), (1.1 * -lam2, 2.0 * -lam2))[zone]


def _kernels(rng: random.Random, sizes: tuple, rounds: int) -> list[KernelTask]:
    per_round = KERNEL_ZONES * len(sizes)
    out = []
    for i in range(rounds * per_round):
        k = i % per_round
        cycle, j = divmod(k, len(sizes))
        n = sizes[j]
        c_kind = ("constant", "variable")[(k + cycle) % 2]
        p = KERNEL_P[(i // per_round + k) % len(KERNEL_P)]
        lo, hi = _kernel_zone((cycle + j) % KERNEL_ZONES, p)
        m = float(_num(rng.uniform(lo, hi)))
        amp = 0.0 if c_kind == "constant" else float(_num(rng.uniform(0.0, 0.5) * (hi - m)))
        out.append(KernelTask(n, p, 1.0, c_kind, m, amp, float(_num(rng.uniform(0.5, 5.0)))))
    return out


def kernels(seed: int) -> list[KernelTask]:
    """Kernel tasks on [0, 1], in whole rounds of KERNEL_ROUND."""
    return _kernels(random.Random(f"beamsign-kernels-{seed}"), KERNEL_CYCLE, 10)


def domain_kernels(seed: int) -> list[KernelTask]:
    """One round of the larger kernel sizes: each meets each coefficient zone."""
    return _kernels(random.Random(f"beamsign-domain-kernels-{seed}"), DOMAIN_KERNEL_CYCLE, 1)


# ---------------------------------------------------------------------------
# cli: rounds of the six subcommands


@dataclass(frozen=True)
class CliCall:
    command: str
    args: tuple            # argv after the subcommand; {work} marks the work directory
    problem: CorpusProblem | None = None   # the problem file, for file commands
    pair: Pair | None = None               # (p, interval) for the threshold check
    rows: int = 0                          # expected CSV data lines (header included)


def cli_calls(seed: int) -> list[CliCall]:
    """CLI_ROUNDS rounds; each runs the six subcommands once in a shuffled order.

    File commands take the corpus problems in order, and ``spectrum`` takes
    the pair of the next one.
    """
    rng = random.Random(f"beamsign-cli-{seed}")
    probs = iter(corpus(seed))
    out = []
    for r in range(CLI_ROUNDS):
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        for cmd in order:
            if cmd == "spectrum":
                pair = next(probs).pair
                out.append(CliCall(cmd, ("--p", _num(pair.p), "--a", _num(pair.a),
                                         "--b", _num(pair.b)), pair=pair))
                continue
            if cmd == "greens":
                n = rng.choice((200, 400))
                p = rng.choice(KERNEL_P)
                m = _num(rng.uniform(-0.9, 2.0) * oracle.lambda_k(p, 1.0, 1))
                out.append(CliCall(cmd, ("--p", _num(p), "--m", m, "--n", str(n),
                                         "--out", "{work}/greens.csv"), rows=n + 2))
                continue
            prob = next(probs)
            pair = prob.pair
            path = f"{{work}}/{cmd}{r}.txt"
            if cmd in ("check", "verify"):
                out.append(CliCall(cmd, (path,), prob, pair))
            elif cmd == "solve":
                out.append(CliCall(cmd, (path, "--out", "{work}/solve.csv"), prob, pair,
                                   rows=prob.n + 3))
            else:
                steps = rng.randint(8, 40)
                lo = _num(-0.9 * pair.lam1)
                hi = _num(-1.5 * pair.lam2)
                out.append(CliCall(cmd, (path, "--param", "c", "--from", lo, "--to", hi,
                                         "--steps", str(steps), "--out", "{work}/sweep.csv"),
                                   prob, pair, rows=steps + 1))
    return out
