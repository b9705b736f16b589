"""The benchmark's workloads: seeded inputs, op schedules and output checks.

A workload has two halves.  ``prepare`` runs once per run in the
runner's process, which never imports the package: it draws the inputs
from the seed, computes the references with ``checks`` and writes both
to a work directory.  The workload object itself lives in a worker
process: it loads what ``prepare`` wrote, builds the program's inputs
and yields an endless closed-loop schedule of ops.  An op calls the
program once; its output is reduced to plain data and compared with the
reference.  Calls go through module attributes (``measures.evaluate``,
not a name imported once), so the wrappers ``spans.install`` puts there
see them.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import monotonic_ns
from typing import Callable, Iterator

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN_VERIFY = ROOT / "tests" / "golden" / "verify-counterexample.json"
# The console script is not installed and the package has no __main__,
# so every CLI op starts the interpreter on this one-liner.
LAUNCHER = "from maxplusprob.cli import main; main()"
CHILD_TIMEOUT_S = 60
CLI_GRID_SIZES = (10, 100, 1000)
# ``convergence_report``'s default fine grid, which the reference must match.
REFERENCE_CELLS = 1_000_000
# Pairs ``verify_counterexample`` checks by default: random ones, and the
# simplex grid of step 12 (91 points, 4186 pairs).
VERIFY_RANDOM_PAIRS = 10_000
GRID_PAIRS = 91 * 92 // 2
KINDS = ("idempotent", "classical")
# What ``prepare`` writes into the work directory.
PREPARED = "prepared.pickle"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    extract: Callable[[object], object]  # program output -> plain data
    check: Callable[[object], bool]  # plain data -> verdict
    # Ops with one key do the same work on inputs of the same size; the
    # loop values each op at its key's fastest latency.  Defaults to ``kind``.
    key: str = ""

    def __post_init__(self) -> None:
        self.key = self.key or self.kind


class Stopwatch:
    """Total time spent inside its ``with`` blocks, in ns: the harness's own work."""

    def __init__(self) -> None:
        self.ns = 0

    def __enter__(self) -> None:
        self._t0 = monotonic_ns()

    def __exit__(self, *exc) -> None:
        self.ns += monotonic_ns() - self._t0


def child_env() -> dict:
    """Environment for child interpreters: the source tree, and .pyc files kept."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def names(prefix: str, count: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(count))


def plain_measure(m) -> tuple:
    kind = {"IdempotentMeasure": "idempotent", "ClassicalMeasure": "classical"}
    weights = tuple(w if isinstance(w, float) else None for w in m.weights)
    return (kind[type(m).__name__], m.space.points, weights)


def measure_doc(measure) -> dict:
    kind, labels, weights = measure
    return {
        "space": list(labels),
        "kind": kind,
        "weights": {p: "-inf" if w is None else w for p, w in zip(labels, weights)},
    }


def doc_measure(doc: dict) -> tuple:
    table = doc["weights"]
    if len(table) != len(doc["space"]):
        raise ValueError("weights do not match the space")
    weights = tuple(None if table[p] == "-inf" else float(table[p]) for p in doc["space"])
    return (doc["kind"], tuple(doc["space"]), weights)


def random_idempotent(rng: random.Random, labels) -> tuple:
    """25 % BOTTOM, other weights uniform in [-8, 0], shifted to peak 0."""
    raw = [None if rng.random() < 0.25 else rng.uniform(-8.0, 0.0) for _ in labels]
    if all(v is None for v in raw):
        raw[0] = 0.0
    return ("idempotent", tuple(labels), checks.normalized(raw))


def random_classical(rng: random.Random, labels) -> tuple:
    """20 % zero mass, other masses uniform in [0.05, 1], rescaled to sum 1."""
    raw = [0.0 if rng.random() < 0.2 else rng.uniform(0.05, 1.0) for _ in labels]
    if max(raw) == 0.0:
        raw[0] = 1.0
    return ("classical", tuple(labels), checks.stored_masses(raw))


def random_piecewise(rng: random.Random, lo: float, hi: float, peak_zero: bool):
    """Breakpoints on [0, 1] and the tightest Lipschitz bound they allow."""
    inner = sorted(rng.sample(range(1, 1000), rng.randint(1, 6)))
    xs = [0.0] + [k / 1000 for k in inner] + [1.0]
    ys = [rng.uniform(lo, hi) for _ in xs]
    if peak_zero:
        ys = [y - max(ys) for y in ys]
    pairs = tuple(zip(xs, ys))
    lip = max(abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]))
    return pairs, lip


def density_inputs(rng: random.Random, count: int) -> list:
    """``count`` seeded (density, L_d, function, L_phi) quadruples."""
    out = []
    for _ in range(count):
        d, lip_d = random_piecewise(rng, -3.0, 0.0, peak_zero=True)
        phi, lip_phi = random_piecewise(rng, -2.0, 2.0, peak_zero=False)
        out.append((d, lip_d, phi, lip_phi))
    return out


class Workload:
    """Seeded inputs plus an op schedule; ``trace`` switches spans on.

    ``harness`` times the benchmark's own work in the worker (loading
    the prepared data, building op references, checking outputs), so
    that the runner can leave it out of ``setup_s``.
    """

    name = ""
    BLOCK = 1  # ops per schedule block, which holds the op mix in fixed shares

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.harness = Stopwatch()
        with self.harness, open(workdir / PREPARED, "rb") as handle:
            self.prepared = pickle.load(handle)

    @classmethod
    def prepare(cls, seed: int, workdir: Path) -> None:
        """Write the seed's inputs and references to ``workdir``."""
        raise NotImplementedError

    @staticmethod
    def save(workdir: Path, prepared: dict) -> None:
        with open(workdir / PREPARED, "wb") as handle:
            pickle.dump(prepared, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def schedule(self) -> Iterator[Op]:
        """The endless op sequence; the same seed gives the same sequence."""
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """One op of every kind, run untimed before the loop."""
        raise NotImplementedError

    def trace(self, tracer) -> None:
        import spans

        spans.install(tracer)


# -- scale-1e5 ---------------------------------------------------------------


class Scale(Workload):
    """Warm library calls on 1e5-point inputs; read-heavy, no import or spawn."""

    name = "scale-1e5"
    BLOCK = 20
    N = 100_000
    CODOMAIN = 10_000
    FACTOR = 316
    FUNCTIONS = 8
    ROTATION = (
        "encode", "push-idempotent", "push-classical", "product-idempotent",
        "product-classical", "to-classical", "to-idempotent", "approx",
    )

    @classmethod
    def prepare(cls, seed: int, workdir: Path) -> None:
        """Inputs as arrays, the JSON texts to decode, and packed references.

        Labels are not stored: ``names`` rebuilds them in the worker.
        """
        rng = random.Random(f"{seed}:inputs")
        labels = names("x", cls.N)
        plain = {
            "idempotent": random_idempotent(rng, labels),
            "classical": random_classical(rng, labels),
        }
        values = [
            tuple(20.0 * rng.random() - 10.0 for _ in labels) for _ in range(cls.FUNCTIONS)
        ]
        codomain = names("y", cls.CODOMAIN)
        assignment = [rng.randrange(cls.CODOMAIN) for _ in labels]
        factors = {
            "idempotent": [random_idempotent(rng, names(s, cls.FACTOR)) for s in "ab"],
            "classical": [random_classical(rng, names(s, cls.FACTOR)) for s in "ab"],
        }
        eps = rng.uniform(0.05, 0.95)
        target = rng.randrange(cls.N)
        docs = {kind: measure_doc(m) for kind, m in plain.items()}
        idem, cls_ = plain["idempotent"], plain["classical"]
        want = {
            "push-idempotent": checks.pushforward(idem, codomain, assignment),
            "push-classical": checks.pushforward(cls_, codomain, assignment),
            "product-idempotent": checks.product(*factors["idempotent"]),
            "product-classical": checks.product(*factors["classical"]),
            "to-classical": checks.softmax(idem),
            "to-idempotent": checks.log_ratio(cls_),
            "approx": checks.mix(idem, checks.dirac_weights(cls.N, target), eps),
        }
        cls.save(workdir, {
            "measures": {kind: checks.pack(m) for kind, m in plain.items()},
            "supports": {kind: bytes(checks.support(m)) for kind, m in plain.items()},
            "values": [array("d", v) for v in values],
            "assignment": array("l", assignment),
            "factors": {kind: [checks.pack(m) for m in ms] for kind, ms in factors.items()},
            "eps": eps,
            "target": target,
            "texts": {kind: json.dumps(doc) for kind, doc in docs.items()},
            "encoded": {kind: checks.digest_doc(doc) for kind, doc in docs.items()},
            "evaluations": {
                (kind, k): checks.evaluate(plain[kind], values[k])
                for kind in plain
                for k in range(cls.FUNCTIONS)
            },
            "want": {key: checks.pack(m) for key, m in want.items()},
        })

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from maxplusprob import (
            convert, functors, geometry, jsonio, measures, semiring
        )

        prepared = self.prepared
        labels = names("x", self.N)
        codomain = names("y", self.CODOMAIN)

        def build(packed, points):
            kind, _, weights = packed
            space = measures.FiniteSpace(points)
            if kind == "classical":
                return measures.classical_measure(space, tuple(weights))
            return measures.IdempotentMeasure(
                space, tuple(semiring.BOTTOM if w != w else w for w in weights)
            )

        # Inputs the loop does not need again are popped, so the worker
        # holds no plain copy of them next to the program's objects.
        sources = prepared["measures"]
        mu = {kind: build(m, labels) for kind, m in sources.items()}
        space = mu["idempotent"].space
        phis = [measures.TestFunction(space, tuple(v)) for v in prepared.pop("values")]
        fmap = functors.PointMap(
            space, measures.FiniteSpace(codomain),
            tuple(codomain[j] for j in prepared.pop("assignment")),
        )
        pairs = {
            kind: [build(m, names(s, self.FACTOR)) for s, m in zip("ab", ms)]
            for kind, ms in prepared.pop("factors").items()
        }
        eps, target = prepared["eps"], prepared["target"]
        texts, encoded = prepared["texts"], prepared["encoded"]
        evaluations, want = prepared["evaluations"], prepared["want"]
        supports = prepared["supports"]
        self.parse = json.loads

        def measure_op(kind, run, source=None):
            def check(got):
                ok = checks.matches(got, want[kind], checks.TOL)
                if source is not None:
                    ok = ok and bytes(checks.support(got)) == supports[source]
                return ok

            return Op(kind, run, plain_measure, check)

        self._rotating = {
            "push-idempotent": measure_op(
                "push-idempotent", lambda: functors.pushforward(fmap, mu["idempotent"])),
            "push-classical": measure_op(
                "push-classical", lambda: functors.pushforward(fmap, mu["classical"])),
            "product-idempotent": measure_op(
                "product-idempotent",
                lambda: functors.product_idempotent(*pairs["idempotent"])),
            "product-classical": measure_op(
                "product-classical",
                lambda: functors.product_classical(*pairs["classical"])),
            "to-classical": measure_op(
                "to-classical", lambda: convert.to_classical(mu["idempotent"]),
                "idempotent"),
            "to-idempotent": measure_op(
                "to-idempotent", lambda: convert.to_idempotent(mu["classical"]),
                "classical"),
            "approx": measure_op(
                "approx",
                lambda: geometry.approx_toward_point(mu["idempotent"], labels[target], eps)),
        }

        def evaluate_op(kind, k):
            return Op(
                f"evaluate-{kind}",
                lambda: measures.evaluate(mu[kind], phis[k]),
                float,
                lambda got: checks.close(got, evaluations[kind, k], checks.TOL),
            )

        def decode_op(kind):
            return Op(
                f"decode-{kind}",
                lambda: jsonio.decode_measure(self.parse(texts[kind])),
                plain_measure,
                lambda got: checks.matches(got, sources[kind], 0.0),
            )

        def encode_op(kind):
            return Op(
                f"encode-{kind}",
                lambda: jsonio.encode_measure(mu[kind]),
                lambda doc: doc,
                lambda got: checks.digest_doc(got) == encoded[kind],
            )

        self._evaluate, self._decode, self._encode = evaluate_op, decode_op, encode_op

    def schedule(self) -> Iterator[Op]:
        rng = random.Random(f"{self.seed}:schedule")
        turn = decodes = 0
        while True:
            block = [
                self._evaluate(kind, rng.randrange(self.FUNCTIONS))
                for kind in KINDS
                for _ in range(7)
            ]
            # Decode kinds alternate, so every two blocks hold the same
            # shares whatever the seed: the two kinds differ in cost.
            block += [self._decode(KINDS[(decodes + i) % 2]) for i in range(3)]
            decodes += 3
            for _ in range(3):
                kind = self.ROTATION[turn % len(self.ROTATION)]
                if kind == "encode":
                    cycle = turn // len(self.ROTATION)
                    block.append(self._encode(KINDS[cycle % 2]))
                else:
                    block.append(self._rotating[kind])
                turn += 1
            rng.shuffle(block)
            yield from block

    def warmup(self) -> list[Op]:
        return (
            [self._evaluate(kind, 0) for kind in KINDS]
            + [self._decode(kind) for kind in KINDS]
            + [self._encode(kind) for kind in KINDS]
            + list(self._rotating.values())
        )

    def trace(self, tracer) -> None:
        super().trace(tracer)
        self.parse = tracer.wrap(json.loads, "json.loads")


# -- cli-cold ----------------------------------------------------------------


class CliCold(Workload):
    """One CLI subprocess per op; the runner never imports the package."""

    name = "cli-cold"
    BLOCK = 8
    SUBCOMMANDS = (
        "eval", "push", "product", "convert", "dist", "approx",
        "verify-counterexample", "density-converge",
    )
    SIZES = (10, 1000)
    # Product factor sizes whose product has n atoms.
    FACTORS = {10: (2, 5), 1000: (25, 40)}
    DENSITIES = 3

    @classmethod
    def prepare(cls, seed: int, workdir: Path) -> None:
        """The CLI's input files, plus the plain data the op references need."""
        rng = random.Random(f"{seed}:inputs")
        files: dict = {}
        data: dict = {}

        def write(name: str, doc) -> str:
            path = workdir / name
            path.write_text(json.dumps(doc))
            return str(path)

        for n in cls.SIZES:
            labels = [f"p{i}" for i in range(n)]
            codomain = [f"q{j}" for j in range(max(2, n // 10))]
            assignment = [rng.randrange(len(codomain)) for _ in labels]
            left, right = cls.FACTORS[n]
            data[n] = item = {
                "idempotent": random_idempotent(rng, labels),
                "classical": random_classical(rng, labels),
                "other": random_idempotent(rng, labels),
                "function": tuple(rng.uniform(-10.0, 10.0) for _ in labels),
                "map": (tuple(codomain), assignment),
                "factors": {
                    kind: [make(rng, [f"{s}{i}" for i in range(size)])
                           for s, size in (("l", left), ("r", right))]
                    for kind, make in (("idempotent", random_idempotent),
                                       ("classical", random_classical))
                },
            }
            docs = {
                "idempotent": measure_doc(item["idempotent"]),
                "classical": measure_doc(item["classical"]),
                "other": measure_doc(item["other"]),
                "function": {"space": labels,
                             "values": dict(zip(labels, item["function"]))},
                "map": {"domain": labels, "codomain": codomain,
                        "map": {p: codomain[j] for p, j in zip(labels, assignment)}},
            }
            for kind, pair in item["factors"].items():
                docs[f"{kind}-left"], docs[f"{kind}-right"] = map(measure_doc, pair)
            for key, doc in docs.items():
                files[n, key] = write(f"{key}-{n}.json", doc)
        want_density = []
        for k, (d, ld, phi, lp) in enumerate(density_inputs(rng, cls.DENSITIES)):
            files["density", k] = write(
                f"density-{k}.json", {"breakpoints": [list(p) for p in d], "lipschitz": ld})
            files["function", k] = write(
                f"function-{k}.json", {"breakpoints": [list(p) for p in phi], "lipschitz": lp})
            want_density.append(checks.convergence_expectation(
                d, ld, phi, lp, CLI_GRID_SIZES, REFERENCE_CELLS))
        cls.save(workdir, {"files": files, "data": data, "want_density": want_density})

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.env = child_env()
        self.tracer = None
        with self.harness:
            self.golden = GOLDEN_VERIFY.read_bytes()
        self.files = self.prepared["files"]
        self.data = self.prepared["data"]
        self.want_density = self.prepared["want_density"]

    def run_cli(self, args: list[str]) -> bytes:
        if self.tracer is None:
            command = [sys.executable, "-c", LAUNCHER, *args]
        else:
            spanfile = self.workdir / "child.spans"
            command = [sys.executable, str(BENCH / "cli_child.py"), str(spanfile), *args]
        proc = subprocess.run(
            command, env=self.env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        if self.tracer is not None:
            self.tracer.merge(spanfile)
            spanfile.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stdout!r}")
        return proc.stdout

    def _op(self, sub: str, rng: random.Random) -> Op:
        n = rng.choice(self.SIZES)
        kind = rng.choice(KINDS)
        item = self.data[n]
        files = self.files
        tol = checks.CLI_TOL
        key = f"{sub} {n} {kind}"

        def measure_check(want, source=None):
            def check(doc):
                got = doc_measure(doc)
                ok = checks.same_measure(got, want, tol)
                if source is not None:
                    ok = ok and checks.support(got) == checks.support(source)
                return ok

            return check

        if sub == "eval":
            args = ["--measure", files[n, kind], "--function", files[n, "function"]]
            want = checks.evaluate(item[kind], item["function"])
            check = lambda doc: list(doc) == ["value"] and checks.close(doc["value"], want, tol)
        elif sub == "push":
            args = ["--measure", files[n, kind], "--map", files[n, "map"]]
            check = measure_check(checks.pushforward(item[kind], *item["map"]))
        elif sub == "product":
            args = ["--measure", files[n, f"{kind}-left"], "--measure2", files[n, f"{kind}-right"]]
            check = measure_check(checks.product(*item["factors"][kind]))
        elif sub == "convert":
            if kind == "idempotent":
                args = ["--measure", files[n, kind], "--to", "classical"]
                check = measure_check(checks.softmax(item[kind]), item[kind])
            else:
                args = ["--measure", files[n, kind], "--to", "idempotent"]
                check = measure_check(checks.log_ratio(item[kind]), item[kind])
        elif sub == "dist":
            eps = round(rng.uniform(0.01, 1.0), 6)
            args = ["--epsilon", repr(eps)]
            key = sub
            measured, stated = checks.path_distances(eps)
            check = lambda doc: (
                sorted(doc) == ["closed_form", "epsilon", "measured"]
                and checks.close(doc["epsilon"], eps, tol)
                and checks.close(doc["measured"], measured, tol)
                and checks.close(doc["closed_form"], stated, tol)
            )
        elif sub == "approx":
            eps = round(rng.uniform(0.01, 1.0), 6)
            source = item["idempotent"]
            args = ["--measure", files[n, "idempotent"], "--epsilon", repr(eps)]
            if kind == "idempotent":
                at = rng.randrange(n)
                args += ["--point", source[1][at]]
                target = checks.dirac_weights(n, at)
            else:
                args += ["--measure2", files[n, "other"]]
                target = item["other"][2]
            check = measure_check(checks.mix(source, target, eps))
        elif sub == "verify-counterexample":
            args = []
            key = sub
            check = lambda out: out == self.golden
        else:
            k = rng.randrange(self.DENSITIES)
            key = f"{sub} {k}"
            args = ["--density", files["density", k], "--function", files["function", k]]
            for size in CLI_GRID_SIZES:
                args += ["--grid", str(size)]
            want = self.want_density[k]

            def check(doc):
                got = dict(doc, rows=[(r["n"], r["error"], r["bound"]) for r in doc["rows"]])
                return checks.check_convergence(got, want, tol)

        extract = (lambda out: out) if sub == "verify-counterexample" else json.loads
        return Op(sub, lambda: self.run_cli([sub, *args]), extract, check, key)

    def schedule(self) -> Iterator[Op]:
        rng = random.Random(f"{self.seed}:schedule")
        while True:
            block = list(self.SUBCOMMANDS)
            rng.shuffle(block)
            for sub in block:
                yield self._op(sub, rng)

    def warmup(self) -> list[Op]:
        rng = random.Random(f"{self.seed}:warmup")
        return [self._op(sub, rng) for sub in self.SUBCOMMANDS]

    def trace(self, tracer) -> None:
        self.tracer = tracer


WORKLOADS = {w.name: w for w in (CliCold, Scale)}
