"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, runs an untimed
set-up (input generation and warm-up), and then hands out rounds of
inputs.  A round always holds the same mix of input kinds, so that every
seed measures the same kind of work; the measuring loop stops only at a
round boundary.  ``pass_rounds`` rounds make a pass, once over the
workload's inputs.

``run(item, traced)`` is the timed op; ``traced`` matters only to the
CLI workload, whose traced ops start the child through the traced
launcher.  ``check`` verifies an output exactly and runs outside the
timed interval; ``canonical`` gives the output's canonical serialized
form for the output digest.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "cli_child.py"
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
CLI_TIMEOUT_S = 60


def import_perisym():
    """Import the program from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import perisym
    from perisym import serialize

    return perisym, serialize


def _is_diagonal(poly) -> bool:
    """Supported on powers of x_1...x_m only; such targets lift directly."""
    return all(len(set(exps)) <= 1 for exps in poly.terms)


def _window_member(P, rng: random.Random, n: int, bound: int):
    """The criterion-5 family: 4 random window-basis elements of J_n with
    coefficients in [-3, 3]."""
    basis = P.membership_window_basis(n, bound)
    out = P.LaurentPoly.zero(n)
    for index in rng.sample(range(len(basis)), 4):
        out = out + rng.randint(-3, 3) * basis[index]
    return out


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Certify:
    """Warm long-running library process: ``certify(f)`` then
    ``validate() == f`` on rank-4 members of J_4 built from
    ``membership_window_basis(4, 2)``.

    Inputs are kept when the rank-2 image ``ds_eval(f)`` is non-diagonal
    with max |exponent| 2, so the default lift search starts at the
    (4, Window(6)) system that warm-up factors.  Op cost falls into two
    clusters set by the size of the lift, so inputs come from a band of
    lift sizes around the upper quartile of a seeded candidate pool, and
    every seed measures the same kind of op.  Warm-up certifies inputs
    picked the same way from a separately seeded pool.

    Bound-3 members are left out: their ops fall into two cost classes
    (kernel quotients of about 2.4k and 4.7k terms) that no cheap input
    property separates, so a run's mix, and its throughput, depended on
    the seed.

    Keeping only images with max |exponent| 2 also keeps out the targets
    whose lift search starts at Window(5), where ``lift_window`` at n=4
    raises ZeroDivisionError in ``reduce_by_lattice`` at this commit; this
    workload cannot show that defect.
    """

    name = "certify"
    bound = 2
    quantile = 0.75
    pool_size = 120
    band_size = 40
    pass_rounds = band_size
    warmup_pool_size = 16
    warmup_count = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.P, self.serialize = import_perisym()

    def _band(self, rng: random.Random, pool_size: int, width: int) -> list:
        """``width`` candidates around the quantile of lift term count."""
        P = self.P
        ranked = []
        while len(ranked) < pool_size:
            f = _window_member(P, rng, 4, self.bound)
            if f.is_zero():
                continue
            h = P.ds_eval(f)
            if h.max_abs_exponent() == self.bound and not _is_diagonal(h):
                ranked.append((len(P.lift_window(h)), len(ranked), f))
        ranked.sort(key=lambda item: item[:2])
        lo = max(0, round(self.quantile * (pool_size - 1)) - width // 2)
        return [f for _, _, f in ranked[lo:lo + width]]

    def setup(self) -> None:
        warm = random.Random(f"certify-warmup-{self.seed}")
        for f in self._band(warm, self.warmup_pool_size, self.warmup_count):
            self.P.certify(f).validate()
        rng = random.Random(f"certify-{self.seed}")
        self.inputs = self._band(rng, self.pool_size, self.band_size)
        rng.shuffle(self.inputs)

    def rounds(self):
        for r in itertools.count():
            index = r % len(self.inputs)
            yield [(str(index), self.inputs[index])]

    def run(self, f, traced: bool = False):
        cert = self.P.certify(f)
        return cert, cert.validate()

    def check(self, f, output) -> bool:
        cert, validated = output
        return validated == f and cert.top_rank() == f.arity

    def canonical(self, output):
        return self.serialize.certificate_to_dict(output[0])

    def sizes(self, f, output):
        cert = output[0]
        terms = len(cert.bottom) + sum(
            len(level.lift_part) + len(level.kernel_coeffs.coeffs) for level in cert.levels
        )
        return len(f), terms

    def peak_rss_mb(self) -> float:
        return peak_rss_self_mb()


class Euler:
    """Fresh-weight sweep: ``euler_characteristic(lam + c*1, gamma)`` then
    ``ds_power(., k)`` with gamma = (0^2k, (-1)^(n-2k)) and
    lam = (a^2k, 0^(n-2k)).

    The configurations (n, k, a) are the ones whose op takes under ~2 s
    ((5, 1, 3) takes 2.2 s and is left out).  A round runs the two cheap
    ones, (5, 1, 1) and (6, 2, 1), once, the costliest, (6, 2, 2), twice
    and the middle one, (5, 1, 2), four times: the median op then lies
    in the middle of the (5, 1, 2) ops, so op-to-op timing jitter does
    not move it into a neighbouring configuration.
    Shifts c are seeded and 32 apart, so no op requests a Schur weight
    that an earlier op requested.
    """

    name = "euler"
    configs = ((5, 1, 1), (6, 2, 1), (5, 1, 2), (5, 1, 2), (5, 1, 2), (5, 1, 2),
               (6, 2, 2), (6, 2, 2))
    shift_step = 32
    pass_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.P, self.serialize = import_perisym()

    def setup(self) -> None:
        rng = random.Random(f"euler-{self.seed}")
        self.base_shift = rng.randrange(-10**6, 10**6)
        # Warm-up: the cheapest configuration of each arity, at shifts
        # below every timed one.
        for step, config in enumerate(((5, 1, 1), (6, 2, 1)), start=1):
            self.run((config, self.base_shift - step * self.shift_step))

    def rounds(self):
        op = 0
        while True:
            batch = []
            for config in self.configs:
                batch.append((str(op), (config, self.base_shift + op * self.shift_step)))
                op += 1
            yield batch

    def run(self, item, traced: bool = False):
        (n, k, a), shift = item
        gamma = (0,) * (2 * k) + (-1,) * (n - 2 * k)
        lam = (a + shift,) * (2 * k) + (shift,) * (n - 2 * k)
        poly, expansion = self.P.euler_characteristic(lam, gamma)
        return poly, expansion, self.P.ds_power(poly, k)

    def check(self, item, output) -> bool:
        P = self.P
        (n, k, _), shift = item
        poly, _, image = output
        m = n - 2 * k
        expected = P.LaurentPoly.monomial(m, (shift,) * m) * P.denominators(m)[0]
        return image == expected and P.membership(poly).member

    def canonical(self, output):
        poly, expansion, image = output
        return {
            "poly": self.serialize.poly_to_dict(poly),
            "schur": self.serialize.schur_to_dict(expansion),
            "image": self.serialize.poly_to_dict(image),
        }

    def sizes(self, item, output):
        return item[0][0], len(output[0])

    def peak_rss_mb(self) -> float:
        return peak_rss_self_mb()


class CliLift:
    """Cold CLI: one fresh ``python -m perisym.cli lift --n 4 -h <payload>``
    process per op, run sequentially with PYTHONPATH=src.

    Targets are nonzero, non-diagonal J_2 members built from
    ``membership_window_basis(2, 2)`` with max |exponent| 2, so each child
    factors the (4, Window(6)) system from empty caches.  The filter also
    keeps out the max-|exponent|-1 targets, whose lift at Window(5) raises
    ZeroDivisionError in ``reduce_by_lattice`` at this commit, so this
    workload cannot show that defect.
    """

    name = "cli_lift"
    pool_size = 12
    pass_rounds = pool_size

    def __init__(self, seed: int):
        self.seed = seed
        self.P, self.serialize = import_perisym()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.workdir: Path | None = None

    def setup(self) -> None:
        P = self.P
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"cli_lift-{self.seed}-", dir=OUT_DIR))
        rng = random.Random(f"cli_lift-{self.seed}")
        self.targets = []
        while len(self.targets) < self.pool_size:
            h = _window_member(P, rng, 2, 2)
            if h.is_zero() or _is_diagonal(h) or h.max_abs_exponent() != 2:
                continue
            path = self.workdir / f"target-{len(self.targets):03d}.json"
            path.write_text(json.dumps(self.serialize.poly_to_dict(h)), encoding="utf-8")
            self.targets.append((h, str(path)))
        # Warm-up: one child on a diagonal target, which needs no window.
        warm = self.workdir / "warmup.json"
        warm.write_text(json.dumps(self.serialize.poly_to_dict(P.LaurentPoly.one(2))),
                        encoding="utf-8")
        self.child_trace = self.workdir / "child-trace.jsonl"
        self._launch(str(warm), traced=False)

    def _launch(self, payload: str, traced: bool):
        """A traced op starts the child through the traced launcher, which
        writes its spans to ``child_trace``."""
        args = ["lift", "--n", "4", "-h", payload]
        if traced:
            argv = [sys.executable, str(CHILD), str(self.child_trace),
                    repr(time.perf_counter()), *args]
        else:
            argv = [sys.executable, "-m", "perisym.cli", *args]
        return subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)

    def rounds(self):
        for r in itertools.count():
            index = r % len(self.targets)
            yield [(str(index), self.targets[index])]

    def run(self, item, traced: bool = False):
        proc = self._launch(item[1], traced)
        return proc.returncode, proc.stdout

    def check(self, item, output) -> bool:
        code, stdout = output
        if code != 0:
            return False
        lift = self.serialize.poly_from_dict(json.loads(stdout))
        return self.P.membership(lift).member and self.P.ds_eval(lift) == item[0]

    def canonical(self, output):
        return self.serialize.poly_to_dict(self.serialize.poly_from_dict(json.loads(output[1])))

    def sizes(self, item, output):
        return len(item[0]), len(self.serialize.poly_from_dict(json.loads(output[1])))

    def peak_rss_mb(self) -> float:
        return peak_rss_children_mb()

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir)


WORKLOADS = {cls.name: cls for cls in (Certify, Euler, CliLift)}
