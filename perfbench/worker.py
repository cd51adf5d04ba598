"""One workload of the ghzw benchmark, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts this process and measures set-up from that moment to the
``ready`` timestamp printed here (time.monotonic, which is system-wide).
Work is done in whole rounds: every round of a workload has the same
make-up, drawn from (seed, round index).  An untraced run repeats
rounds until ``--seconds`` have passed (and a workload's minimum round
count is met); a traced run does a fixed number of rounds twice, first
untraced and then traced, so call counts repeat exactly for a seed.
Answers are checked after each round, outside the timed calls.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
CLI_ENTRY = os.path.join(HERE, "cli_entry.py")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

TWO_PI = 2.0 * np.pi


def haar_ket(rng, dim: int = 8) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def re_im_pairs(values) -> list:
    """Complex numbers as the [re, im] pairs of ghzw's JSON state files."""
    return [[float(v.real), float(v.imag)] for v in values]


def local_frame(rng) -> np.ndarray:
    return np.kron(np.kron(haar_unitary(rng), haar_unitary(rng)), haar_unitary(rng))


class Op:
    """One timed operation: its kind, wall seconds, and what to check.

    ``scaled`` is the wall time rescaled to reference speed (see Clock).
    """

    __slots__ = ("kind", "seconds", "scaled", "payload", "error")

    def __init__(self, kind, seconds, scaled, payload=None, error=None):
        self.kind, self.seconds, self.scaled, self.payload, self.error = kind, seconds, scaled, payload, error


_REF_MATRIX = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5.0


def reference_work() -> None:
    """A fixed mix of interpreter and small-numpy work, about 2 ms here."""
    total = 0
    for i in range(15000):
        total += i * i
    for _ in range(60):
        np.linalg.eigvalsh(_REF_MATRIX)


class Clock:
    """Times operations and rescales them to reference speed.

    The machine this runs on is shared, and its speed drifts by 15-30%
    over tens of seconds with other tenants' load.  Before an operation,
    at most every REFRESH_S, the clock times ``reference_work`` (best of
    three).  An operation's scaled time is its wall time times
    REF_NOMINAL_S over the mean of the reference times taken just before
    and just after it: the time it would take on a machine where the
    reference runs in exactly REF_NOMINAL_S.
    """

    REF_NOMINAL_S = 0.002
    REFRESH_S = 0.1

    def __init__(self):
        self.history = []  # reference times, seconds
        self._pending = []  # ops timed since the last reference
        self._last = -np.inf

    def reference(self) -> None:
        """Time the reference now and scale the ops timed since the last one."""
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            reference_work()
            samples.append(time.perf_counter() - start)
        self.history.append(min(samples))
        self._last = time.perf_counter()
        if len(self.history) > 1:
            ref = 0.5 * (self.history[-2] + self.history[-1])
            for op in self._pending:
                op.scaled = op.seconds * self.REF_NOMINAL_S / ref
        self._pending = []

    def timed(self, kind, fn, *args) -> Op:
        if time.perf_counter() - self._last >= self.REFRESH_S:
            self.reference()
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        op = Op(kind, time.perf_counter() - start, None, result, error)
        self._pending.append(op)
        return op


def q90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def round_rate(rounds, kinds, attr, units_per_op=1) -> float:
    """Median over rounds of units done per second in ops of the given kinds."""
    rates = []
    for ops in rounds:
        secs = [getattr(op, attr) for op in ops if op.kind in kinds]
        if secs:
            rates.append(len(secs) * units_per_op / sum(secs))
    return statistics.median(rates)


def latencies(rounds, kinds, attr) -> list[float]:
    return [getattr(op, attr) for ops in rounds for op in ops if op.kind in kinds]


# ---------------------------------------------------------------------------
# workloads


class Canonical:
    """acin_decompose on Haar, planted, special and biseparable inputs.

    The Haar bulk is a fixed panel put in a fresh seeded local-unitary
    frame every time: decomposition cost is heavy-tailed across Haar
    states (coefficient of variation about 1.4) but mostly a property of
    the state, so a panel keeps the per-run cost steady while the seed
    still moves every input.  A round is the whole panel in four blocks,
    each followed by the degenerate inputs: 104 decompositions.  Two
    rounds at least, so the 90th percentile has 20 samples beyond it.
    """

    min_rounds = 2
    trace_rounds = 1
    PANEL_SEED = 20050614
    PANEL = 64
    BLOCKS = 4
    #: canonical-form lambdas planted as zero, one state per pattern per block
    ZERO_PATTERNS = ((1,), (0,), (2, 3), (4,), (1, 2))
    HAAR = ("haar",)
    DEGENERATE = ("planted", "ghz", "w", "xi", "biseparable", "product")

    def __init__(self, seed, clock):
        from ghzw import canonical

        self.lib = canonical
        self.seed, self.clock = seed, clock
        panel_rng = np.random.default_rng(self.PANEL_SEED)
        self.panel = [haar_ket(panel_rng) for _ in range(self.PANEL)]

    def round_inputs(self, r):
        rng = np.random.default_rng([self.seed, r])
        items = []
        per_block = self.PANEL // self.BLOCKS
        for block in range(self.BLOCKS):
            for base in self.panel[block * per_block : (block + 1) * per_block]:
                items.append(("haar", local_frame(rng) @ base))
            for zeros in self.ZERO_PATTERNS:
                lams = rng.uniform(0.2, 1.0, 5)
                lams[list(zeros)] = 0.0
                lams /= np.linalg.norm(lams)
                items.append(("planted", local_frame(rng) @ checks.acin_ket(lams, rng.uniform(0.0, np.pi))))
            items.append(("ghz", checks.ghz_kets(rng.uniform(0.0, TWO_PI))[0]))
            items.append(("w", checks.w_kets(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))[0]))
            items.append(("xi", checks.xi_ket()))
            solo, pair = haar_ket(rng, 2), haar_ket(rng, 4).reshape(2, 2)
            items.append(("biseparable", np.moveaxis(np.multiply.outer(solo, pair), 0, block % 3).reshape(8)))
            items.append(("product", np.kron(np.kron(haar_ket(rng, 2), haar_ket(rng, 2)), haar_ket(rng, 2))))
        return items

    def _decompose(self, psi):
        res = self.lib.acin_decompose(psi)
        u = res.unitaries
        return psi, res.params.lambdas, res.params.alpha, (u.u_a, u.u_b, u.u_c)

    def run(self, items, trace_dir=None):
        return [self.clock.timed(kind, self._decompose, psi) for kind, psi in items]

    def check(self, op):
        return checks.check_decomposition(*op.payload)

    #: workload-specific raw figures: name -> (figure, factor, unit)
    NAMED = {
        "decompose_per_s": ("primary", 1.0, "1/s"),
        "decompose_p50_ms": ("p50", 1e3, "ms"),
        "decompose_p90_ms": ("p90", 1e3, "ms"),
    }

    def figures(self, rounds, attr):
        times = latencies(rounds, self.HAAR + self.DEGENERATE, attr)
        return {
            "primary": round_rate(rounds, self.HAAR + self.DEGENERATE, attr),
            "secondary": round_rate(rounds, self.DEGENERATE, attr),
            "p50": statistics.median(times),
            "p90": q90(times),
        }


class Window:
    """Seeded-phase family sweeps beside Haar states through the scalar API."""

    min_rounds = 1
    trace_rounds = 3
    SWEEPS_PER_ROUND = 2
    GRID_POINTS = 121  # 1/3 and 1/2 are grid points
    HAAR_PER_ROUND = 16
    #: the fixed minority that also gets the stochastic bound
    STOCHASTIC = (0, 5, 10)
    TOL = 1e-12

    def __init__(self, seed, clock):
        from ghzw import classify, criterion, scanner, witness

        self.classify, self.criterion, self.scanner, self.witness = classify, criterion, scanner, witness
        self.seed, self.clock = seed, clock

    def round_inputs(self, r):
        rng = np.random.default_rng([self.seed, r])
        sweeps = [tuple(rng.uniform(0.0, TWO_PI, 4)) for _ in range(self.SWEEPS_PER_ROUND)]
        states = []
        for k in range(self.HAAR_PER_ROUND):
            stochastic_seed = int(rng.integers(2**31)) if k in self.STOCHASTIC else None
            states.append(("haar", haar_ket(rng), stochastic_seed))
        states.append(("xi", checks.xi_ket(), None))
        return sweeps, states

    def _sweep(self, phases):
        phi, gamma, beta, rel = phases
        cfg = self.scanner.ScanConfig(
            grid_points=self.GRID_POINTS,
            phase_phi=phi,
            phase_gamma=gamma,
            phase_beta=beta,
            rel_phase_ab=rel,
            tol=self.TOL,
        )
        return phases, self.scanner.scan_superposition_family(cfg)

    def _analyse(self, psi, stochastic_seed):
        verdict = self.criterion.ghzw_criterion_pure(psi)
        report = self.classify.is_genuinely_entangled_pure(psi)
        lam = self.witness.lambda_bound_analytic(psi)
        stoch = None
        if stochastic_seed is not None:
            stoch = self.witness.lambda_bound_stochastic(psi, seed=stochastic_seed)
        return psi, verdict, report, lam, stoch

    def run(self, inputs, trace_dir=None):
        sweeps, states = inputs
        ops = [self.clock.timed("sweep", self._sweep, phases) for phases in sweeps]
        ops += [self.clock.timed(kind, self._analyse, psi, seed) for kind, psi, seed in states]
        return ops

    def check(self, op):
        if op.kind == "sweep":
            phases, rows = op.payload
            return checks.check_sweep(phases, self.GRID_POINTS, [row.to_dict() for row in rows], self.TOL)
        psi, verdict, report, lam, stoch = op.payload
        errs = checks.check_pure_analysis(
            psi, verdict.to_dict(), report.schmidt_by_cut, report.three_tangle, lam, stoch
        )
        if report.genuinely_entangled != bool(checks.schmidt_sq(psi)[:, 1].min() > 1e-9):
            errs.append("genuinely_entangled disagrees with the Schmidt data")
        if op.kind == "xi":
            errs += checks.check_xi(verdict.to_dict(), report.three_tangle, lam)
        return errs

    NAMED = {
        "sweep_points_per_s": ("primary", 1.0, "1/s"),
        "pure_states_per_s": ("secondary", 1.0, "1/s"),
    }

    def figures(self, rounds, attr):
        # latencies of whole sweeps: a 1 ms scalar call is too short for
        # the reference scaling to steady its median
        sweeps = latencies(rounds, ("sweep",), attr)
        return {
            "primary": round_rate(rounds, ("sweep",), attr, self.GRID_POINTS),
            "secondary": round_rate(rounds, ("haar",), attr),
            "p50": statistics.median(sweeps),
            "p90": q90(sweeps),
        }


class Mixed:
    """Density matrices through the criterion and three PPT cuts, beside window mixtures."""

    min_rounds = 1
    trace_rounds = 2
    FULL_RANK = 12
    RANK_ONE = 4
    MIX_KETS = 8  # Haar kets per full-rank mixture
    N_MIXTURES = 40
    N_COMPONENTS = 4
    TOL = 1e-12

    def __init__(self, seed, clock):
        from ghzw import classify, criterion, scanner

        self.classify, self.criterion, self.scanner = classify, criterion, scanner
        self.seed, self.clock = seed, clock

    def round_inputs(self, r):
        rng = np.random.default_rng([self.seed, r])
        mats = []
        for _ in range(self.FULL_RANK):
            kets = [haar_ket(rng) for _ in range(self.MIX_KETS)]
            mats.append((checks.density(kets, rng.dirichlet(np.ones(self.MIX_KETS))), None))
        for _ in range(self.RANK_ONE):
            psi = haar_ket(rng)
            mats.append((np.outer(psi, psi.conj()), psi))
        return mats, int(rng.integers(2**31))

    def _analyse(self, rho, leading):
        verdict = self.criterion.ghzw_criterion(rho)
        ppt = {cut: self.classify.ppt_min_eigenvalue(rho, cut) for cut in "ABC"}
        return rho, verdict, ppt, leading

    def _mixtures(self, seed):
        cfg = self.scanner.ScanConfig(seed=seed, tol=self.TOL)
        return self.scanner.sample_unwitnessed_mixtures(cfg, self.N_MIXTURES, self.N_COMPONENTS)

    def run(self, inputs, trace_dir=None):
        mats, mix_seed = inputs
        ops = [self.clock.timed("rank1" if lead is not None else "full", self._analyse, rho, lead) for rho, lead in mats]
        ops.append(self.clock.timed("mixtures", self._mixtures, mix_seed))
        return ops

    def check(self, op):
        if op.kind == "mixtures":
            return checks.check_mixture_report(op.payload.to_dict(), self.N_MIXTURES, self.N_COMPONENTS, self.TOL)
        rho, verdict, ppt, leading = op.payload
        return checks.check_mixed_analysis(rho, verdict.to_dict(), ppt, leading)

    NAMED = {
        "mixed_states_per_s": ("primary", 1.0, "1/s"),
        "mixtures_per_s": ("secondary", 1.0, "1/s"),
    }

    def figures(self, rounds, attr):
        mats = latencies(rounds, ("full", "rank1"), attr)
        return {
            "primary": round_rate(rounds, ("full", "rank1"), attr),
            "secondary": round_rate(rounds, ("mixtures",), attr, self.N_MIXTURES),
            "p50": statistics.median(mats),
            "p90": q90(mats),
        }


class Cli:
    """The six subcommands, each a fresh interpreter, one after another.

    A round is seven invocations (analyze runs on a --state file and on
    a builtin GHZ): with an odd count of similar-sized groups the median
    invocation falls inside a group rather than in the gap between two.
    Every round runs the same invocations, so each round's stdout must
    equal the first round's byte for byte.
    """

    min_rounds = 2
    trace_rounds = 1
    SCAN_GRID = 61
    N_MIXTURES = 100

    def __init__(self, seed, clock):
        self.clock = clock
        rng = np.random.default_rng([seed, 0])
        self.dir = os.path.join(OUT, f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.xi_path = os.path.join(self.dir, "xi.json")
        self.rho_path = os.path.join(self.dir, "rho.json")
        self.rho = checks.density([haar_ket(rng) for _ in range(4)], rng.dirichlet(np.ones(4)))
        with open(self.xi_path, "w") as fh:
            json.dump({"dims": [2, 2, 2], "amplitudes": re_im_pairs(checks.xi_ket())}, fh)
        with open(self.rho_path, "w") as fh:
            json.dump({"dims": [2, 2, 2], "matrix": [re_im_pairs(row) for row in self.rho]}, fh)
        self.scan_phases = tuple(float(x) for x in rng.uniform(0.0, TWO_PI, 3))
        w_phases = [repr(float(x)) for x in rng.uniform(0.0, TWO_PI, 2)]
        phi, gamma, beta = (repr(x) for x in self.scan_phases)
        self.ghz_phi = float(rng.uniform(0.0, TWO_PI))
        self.commands = [
            ("analyze", ["analyze", "--state", self.xi_path]),
            ("analyze-ghz", ["analyze", "--builtin", "ghz", "--phi", repr(self.ghz_phi)]),
            ("scan-family", ["scan-family", "--grid", str(self.SCAN_GRID), "--phi", phi, "--gamma", gamma, "--beta", beta]),
            ("mixtures", ["mixtures", "--n-mixtures", str(self.N_MIXTURES), "--seed", str(int(rng.integers(2**31)))]),
            ("lambda", ["lambda", "--builtin", "w", "--gamma", w_phases[0], "--beta", w_phases[1], "--stochastic",
                        "--seed", str(int(rng.integers(2**31)))]),
            ("canonical", ["canonical", "--builtin", "ghz", "--phi", repr(float(rng.uniform(0.0, TWO_PI)))]),
            ("ppt", ["ppt", "--rho", self.rho_path]),
        ]
        self.first_stdout = {}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def round_inputs(self, r):
        return self.commands

    def _invoke(self, argv, trace_out):
        env = dict(os.environ)
        if trace_out:
            env["PERFBENCH_TRACE_OUT"] = trace_out
        proc = subprocess.run(
            [sys.executable, CLI_ENTRY, *argv], capture_output=True, timeout=120, env=env, cwd=ROOT
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, commands, trace_dir=None):
        ops = []
        for name, argv in commands:
            trace_out = os.path.join(trace_dir, f"{name}.json") if trace_dir else None
            ops.append(self.clock.timed(name, self._invoke, argv, trace_out))
        return ops

    def check(self, op):
        code, out, err = op.payload
        if code != 0:
            return [f"{op.kind} exited {code}: {err.decode(errors='replace').strip()[-200:]}"]
        errs = []
        first = self.first_stdout.setdefault(op.kind, out)
        if out != first:
            errs.append(f"{op.kind} stdout differs from its first invocation")
        try:
            payload = json.loads(out)
        except ValueError as exc:
            return errs + [f"{op.kind} output does not parse: {exc}"]
        try:
            errs += self._check_payload(op.kind, payload)
        except (KeyError, TypeError, ValueError) as exc:
            errs.append(f"{op.kind} output lacks a field: {exc!r}")
        return errs

    def _check_payload(self, kind, p):
        if kind == "analyze":
            xi = checks.xi_ket()
            errs = checks.check_xi(p, p["three_tangle"], checks.XI_LAMBDA)
            errs += checks.check_family_minima(xi, p["ghz_min"], p["ghz_opt_phi"], p["w_min"], p["w_opt_gamma"], p["w_opt_beta"])
            if p["detected"] is not False or p["genuinely_entangled"] is not True:
                errs.append("xi must be genuinely entangled and undetected")
            return errs
        if kind == "analyze-ghz":
            ghz = checks.ghz_kets(self.ghz_phi)[0]
            errs = checks.check_family_minima(ghz, p["ghz_min"], p["ghz_opt_phi"], p["w_min"], p["w_opt_gamma"], p["w_opt_beta"])
            for key, want in (("ghz_min", -0.5), ("w_min", 2.0 / 3.0), ("three_tangle", 1.0)):
                if abs(p[key] - want) > checks.VALUE_TOL:
                    errs.append(f"GHZ {key} {p[key]!r}, want {want!r}")
            if p["detected"] is not True or p["genuinely_entangled"] is not True:
                errs.append("GHZ must be genuinely entangled and detected")
            return errs
        if kind == "scan-family":
            return checks.check_sweep((*self.scan_phases, 0.0), self.SCAN_GRID, p, 1e-12)
        if kind == "mixtures":
            return checks.check_mixture_report(p, self.N_MIXTURES, 4, 1e-12)
        if kind == "lambda":
            lam = 2.0 / 3.0
            errs = []
            if abs(p["lambda_analytic"] - lam) > checks.VALUE_TOL:
                errs.append(f"W analytic lambda {p['lambda_analytic']!r}")
            if not lam - 1e-9 <= p["lambda_stochastic"] <= lam + 1e-12:
                errs.append(f"W stochastic lambda {p['lambda_stochastic']!r}")
            return errs
        if kind == "canonical":
            return checks.check_canonical_ghz(p["lambdas"], p["alpha"], p["residual"])
        errs = []
        for slot, cut in enumerate("ABC"):
            want = float(np.linalg.eigvalsh(checks.partial_transpose(self.rho, slot))[0])
            if abs(p[cut] - want) > checks.EIG_TOL:
                errs.append(f"ppt {cut} {p[cut]!r} vs eigvalsh {want!r}")
        return errs

    NAMED = {
        "cli_p50_s": ("p50", 1.0, "s"),
        "cli_total_s": ("total", 1.0, "s"),
    }

    def figures(self, rounds, attr):
        names = tuple(name for name, _ in self.commands)
        times = latencies(rounds, names, attr)
        total = statistics.median([sum(getattr(op, attr) for op in ops) for ops in rounds if len(ops) == len(names)])
        return {
            "primary": round_rate(rounds, names, attr),
            "secondary": 1.0 / total,
            "total": total,
            "p50": statistics.median(times),
            "p90": q90(times),
        }


WORKLOADS = {"canonical": Canonical, "window": Window, "mixed": Mixed, "cli": Cli}


# ---------------------------------------------------------------------------
# running a workload


class Tally:
    """Operations attempted and failed: a raised error or a wrong answer each.

    Each round is checked as soon as it has run (outside the timed
    calls) and its answers dropped, so memory does not grow with the
    number of rounds a run manages.
    """

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add(self, wl, ops) -> None:
        for op in ops:
            errs = [op.error] if op.error else wl.check(op)
            op.payload = None
            self.attempted += 1
            if errs:
                self.failed += 1
                self.wrong += op.error is None
                if self.failed <= 5:
                    print(f"FAIL {op.kind}: {'; '.join(errs)}", file=sys.stderr)


def fresh_import_s(module: str) -> float:
    """Median wall time of ``import module`` in three fresh interpreters."""
    code = f"import sys, time; sys.path.insert(0, {SRC!r}); t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60) for _ in range(3)]
    return statistics.median(float(r.stdout) for r in runs)


def run_untraced(wl, seconds, tally):
    inputs = wl.round_inputs(0)
    ready = time.monotonic()
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(wl.run(inputs))
        tally.add(wl, rounds[-1])
        if len(rounds) >= wl.min_rounds and time.perf_counter() - start >= seconds:
            break
        inputs = wl.round_inputs(len(rounds))
    wl.clock.reference()
    return ready, rounds


def run_traced(wl, name, tally):
    """Each round untraced, then traced; per-layer metrics from the traced pass."""
    import ghzw

    rounds = [wl.round_inputs(r) for r in range(wl.trace_rounds)]
    start = time.perf_counter()
    plain = [op for inputs in rounds for op in wl.run(inputs)]
    plain_wall = time.perf_counter() - start
    tracer = tracing.Tracer()
    trace_dir = None
    if name == "cli":
        trace_dir = os.path.join(wl.dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
    else:
        tracer.install(ghzw)
    start = time.perf_counter()
    traced = [op for inputs in rounds for op in wl.run(inputs, trace_dir)]
    traced_wall = time.perf_counter() - start
    if trace_dir:
        summaries = []
        for op in traced:
            with open(os.path.join(trace_dir, f"{op.kind}.json")) as fh:
                summaries.append(json.load(fh))
        summary = tracing.merge(summaries)
    else:
        summary = tracer.summary()
        tracer.dump(os.path.join(OUT, f"trace-{name}.json"))
    metrics = tracing.layer_metrics(summary)
    for sub in ("analyze", "scan-family", "mixtures", "lambda", "canonical", "ppt"):
        # only the cli workload runs the subcommands
        walls = [op.seconds for op in plain if name == "cli" and op.kind == sub]
        metrics[f"cli.{sub}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    metrics["cli.import_ghzw_s"] = (fresh_import_s("ghzw"), "s")
    metrics["cli.import_numpy_s"] = (fresh_import_s("numpy"), "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    tally.add(wl, plain + traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)

    clock = Clock()
    wl = WORKLOADS[args.workload](args.seed, clock)
    try:
        if args.setup_only:
            wl.round_inputs(0)
            print(json.dumps({"ready": time.monotonic()}))
            return 0
        tally = Tally()
        if args.trace:
            metrics = run_traced(wl, args.workload, tally)
            named, ready = {}, None
        else:
            ready, rounds = run_untraced(wl, args.seconds, tally)
            done = [[op for op in ops_ if op.error is None] for ops_ in rounds]
            scaled, raw = wl.figures(done, "scaled"), wl.figures(done, "seconds")
            metrics = {
                "primary_per_s": (scaled["primary"], "1/s"),
                "secondary_per_s": (scaled["secondary"], "1/s"),
                "p50_ms": (1e3 * scaled["p50"], "ms"),
                "p90_ms": (1e3 * scaled["p90"], "ms"),
            }
            named = {name: (raw[key] * factor, unit) for name, (key, factor, unit) in wl.NAMED.items()}
            named["reference_ms"] = (1e3 * statistics.median(clock.history), "ms")
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print(
        json.dumps(
            {
                "ready": ready,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "correct": tally.wrong == 0,
                "metrics": {k: [v, u] for k, (v, u) in metrics.items()},
                "named": {k: [v, u] for k, (v, u) in named.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
