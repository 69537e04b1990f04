"""The four workloads, each a repeated round of ``gaussfit`` CLI calls.

Every round makes the same calls on the same inputs, so the share of failed
operations is the same in every run however many rounds fit into it.  The
CLI module is looked up on every call, so a traced run sees the wrappers
that :mod:`tracing` installs.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass

import numpy as np

from checks import (
    METHODS,
    check_fit,
    check_init,
    check_iters12,
    check_snr12,
    failed_ops,
    parse_fit,
    read_report,
    require,
    window_fraction,
)

# Seed of the fixed inputs of mc_snr12, mc_iters12 and fit_files; see README.
FIXED_INPUT_SEED = 7
MC_TRIALS = 2000
INIT_TRIALS = 100
INIT_SNR = "9:1:20"
CORPUS_FILES = 1000


@dataclass
class Round:
    latencies_s: list[float]  # one entry per CLI invocation
    fits_per_call: int  # operations: one method on one signal
    trials: int
    failed: int

    @property
    def attempted(self) -> int:
        return self.fits_per_call * len(self.latencies_s)


def call(cli, argv: list[str]) -> tuple[int, float]:
    """Run ``gaussfit <argv>`` in process; return (exit code, seconds)."""
    t0 = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - t0


class BenchWorkload:
    """One ``gaussfit bench`` invocation per round, checked on its report."""

    def __init__(self, cli, workdir: str, argv: list[str], trials: int,
                 methods: int, check, failed_at_sweep: float | None = None,
                 points: int = 1):
        self.cli = cli
        self.out = os.path.join(workdir, "report.csv")
        self.argv = [*argv, "--trials", str(trials), "--workers", "1", "--out", self.out]
        self.trials = trials * points  # an SNR sweep draws new trials per point
        self.methods = methods
        self.check = check
        self.failed_at_sweep = failed_at_sweep
        self.first: bytes | None = None
        self.failed = 0

    def prepare(self) -> None:
        pass

    def round(self) -> Round:
        code, seconds = call(self.cli, self.argv)
        require(code == 0, f"gaussfit {' '.join(self.argv[:2])} exited with {code}")
        with open(self.out, "rb") as fh:
            data = fh.read()
        if self.first is None:
            cells = read_report(data)
            self.check(cells)
            self.failed = failed_ops(cells, self.failed_at_sweep)
            self.first = data
        # the determinism invariant: same seed, same report bytes
        require(data == self.first, "report bytes differ between repeats at one seed")
        return Round([seconds], self.trials * self.methods, self.trials, self.failed)


def mc_snr12(cli, workdir: str, seed: int, input_seed: int) -> BenchWorkload:
    argv = ["bench", "snr", "--seed", str(input_seed), "--snr=12:1:12"]
    return BenchWorkload(cli, workdir, argv, MC_TRIALS, len(METHODS), check_snr12)


def mc_iters12(cli, workdir: str, seed: int, input_seed: int) -> BenchWorkload:
    argv = ["bench", "iters", "--seed", str(input_seed), "--methods", "M2,M4,M5",
            "--snr-db", "12", "--iter-sweep", "1:1:12"]
    return BenchWorkload(cli, workdir, argv, MC_TRIALS, 3, check_iters12,
                         failed_at_sweep=12.0)


def mc_init(cli, workdir: str, seed: int, input_seed: int) -> BenchWorkload:
    start, step, stop = (float(v) for v in INIT_SNR.split(":"))
    points = int(round((stop - start) / step)) + 1
    argv = ["bench", "snr", "--seed", str(seed), "--methods", "M1,M3",
            f"--snr={INIT_SNR}"]
    return BenchWorkload(cli, workdir, argv, INIT_TRIALS, 2, check_init, points=points)


def draw_corpus(seed: int, count: int):
    """Truths and samples of the fit_files corpus, from numpy's generator.

    Lengths 100-2000 samples, spacing 1e-3..1, offset x0 in [-100, 100],
    amplitude 1e-3..1e3 and SNR 10-30 dB.  The peak sits 55-90% of the way
    along the window, on a random side, and the width is 8-13% of the span,
    so the far tail is cut off as in the standard protocol.  Methods go
    round-robin M1..M5.  Yields one file's truth, ``x`` and ``y`` at a time.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(100, 2001))
        dx = 10.0 ** rng.uniform(-3.0, 0.0)
        x0 = rng.uniform(-100.0, 100.0)
        span = (n - 1) * dx
        where = rng.uniform(0.55, 0.9)
        if rng.random() < 0.5:
            where = 1.0 - where
        width = rng.uniform(0.08, 0.13)
        amp = 10.0 ** rng.uniform(-3.0, 3.0)
        snr_db = rng.uniform(10.0, 30.0)
        mu, sigma = x0 + where * span, width * span
        x = x0 + dx * np.arange(n)
        y = amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2)
        y += amp * 10.0 ** (-snr_db / 20.0) * rng.standard_normal(n)
        yield {"name": f"f{i:04d}", "method": METHODS[i % len(METHODS)],
               "A": amp, "mu": mu, "sigma": sigma, "snr_db": snr_db,
               "x_first": float(x[0]), "x_last": float(x[-1]), "x": x, "y": y}


def write_csv(path: str, x, y) -> None:
    np.savetxt(path, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
               header="x,y", comments="")


class FitFilesWorkload:
    """One ``gaussfit fit`` call per corpus file; a round is one pass."""

    def __init__(self, cli, workdir: str, input_seed: int, files: int):
        self.cli = cli
        self.workdir = workdir
        self.input_seed = input_seed
        self.count = files
        self.files: list[dict] = []
        self.first: list[tuple[int, bytes]] | None = None
        self.failed = 0

    def prepare(self) -> None:
        corpus = os.path.join(self.workdir, "corpus")
        os.makedirs(corpus)
        for f in draw_corpus(self.input_seed, self.count):
            path = os.path.join(corpus, f["name"] + ".csv")
            write_csv(path, f.pop("x"), f.pop("y"))
            f["argv"] = ["fit", "--input", path, "--method", f["method"],
                         "--output", os.path.join(corpus, f["name"] + ".json")]
            self.files.append(f)

    def round(self) -> Round:
        latencies, codes = [], []
        with contextlib.redirect_stderr(io.StringIO()):
            for f in self.files:
                code, seconds = call(self.cli, f["argv"])
                latencies.append(seconds)
                codes.append(code)
        outputs = []
        for f, code in zip(self.files, codes):
            # exit 3 is a fit that failed; anything else but 0 is a bad input
            require(code in (0, 3), f"{f['name']}: gaussfit fit exited with {code}")
            data = b""
            if code == 0:
                with open(f["argv"][-1], "rb") as fh:
                    data = fh.read()
            outputs.append((code, data))
        if self.first is None:
            for f, (code, data) in zip(self.files, outputs):
                if code == 0:
                    check_fit(data, f)
            self.failed = sum(1 for code, _ in outputs if code != 0)
            self.first = outputs
        require(outputs == self.first, "fit outputs differ between repeats")
        return Round(latencies, 1, len(self.files), self.failed)


def fit_files(cli, workdir: str, seed: int, input_seed: int) -> FitFilesWorkload:
    return FitFilesWorkload(cli, workdir, input_seed, CORPUS_FILES)


WORKLOADS = {
    "mc_snr12": mc_snr12,
    "mc_iters12": mc_iters12,
    "mc_init": mc_init,
    "fit_files": fit_files,
}


def noiseless_checks(cli, workdir: str) -> None:
    """Untimed: exact fits of a noiseless long-tail signal (A=1, mu=9, sigma=1.3).

    One reweighted step (M5 with one iteration) must recover it to 1e-6, M3
    to 0.5% in sigma, and M1's width must be the truncated-area width.
    """
    truth = {"A": 1.0, "mu": 9.0, "sigma": 1.3}
    x = 0.01 * np.arange(1001)
    path = os.path.join(workdir, "noiseless.csv")
    out = os.path.join(workdir, "noiseless.json")
    write_csv(path, x, np.exp(-0.5 * ((x - 9.0) / 1.3) ** 2))

    def fit(method, *extra):
        code, _ = call(cli, ["fit", "--input", path, "--method", method, *extra,
                             "--output", out])
        require(code == 0, f"noiseless {method} fit exited with {code}")
        with open(out, "rb") as fh:
            return parse_fit(fh.read(), method)

    exact = fit("M5", "--iters", "1")
    for got, (key, want) in zip(exact, truth.items()):
        require(abs(got / want - 1.0) <= 1e-6,
                f"one reweighted step misses noiseless {key}: {got!r}")
    _, _, sigma = fit("M3")
    require(abs(sigma / 1.3 - 1.0) <= 0.005, f"M3 misses noiseless sigma: {sigma!r}")
    _, _, sigma = fit("M1")
    frac = window_fraction(9.0, 1.3, 0.0, 10.0)
    require(abs(sigma / (1.3 * frac) - 1.0) <= 0.005,
            f"M1 noiseless sigma {sigma!r} is not the truncated-area width")

