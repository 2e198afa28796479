"""Run one workload in this fresh process and write the measurements as JSON.

Started by ``run.py`` with the thread settings already in the environment.
It times set-up, from before ``import gaplab.cli`` until the configuration
file is resolved, then runs the experiment the way ``gaplab run --config``
does (``cli.run`` followed by ``cli.write_report``), once to warm up and
then repeatedly until ``--seconds`` are used, checking every report.  With ``--trace 1`` it runs
untraced and traced runs in pairs at the same seed, checks that their
``trials.csv`` files are byte-identical, and reports per-layer metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--src", required=True, help="directory gaplab must be imported from")
    p.add_argument("--workload", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process,
    or None when it cannot be queried."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GAPLAB_THREADS": os.environ.get("GAPLAB_THREADS"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import gaplab.cli as cli
    cfg = cli.parse_config(args.config)
    setup_s = time.perf_counter() - start

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"gaplab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, **Runner(cli, cfg, args).measure(),
              "machine": machine_facts(),
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


class ReferenceKernel:
    """Fixed numpy work whose time tracks the host's speed, not gaplab's.

    The host this benchmark was defined on changes speed by up to 1.7x within
    a minute, and by different amounts for interpreter-bound and for
    LAPACK-bound code.  Timing a kernel of the workload's kind next to each
    measured run lets ``run.py`` express throughput at a fixed reference
    speed.  ``interpreter`` is a Python loop over tiny QRs plus a few 96 x 96
    QRs; ``lapack`` is one 200 x 200 complex QR and a product of that size.
    """

    # Typical unit times on the 2-core x86-64 VM the benchmark was defined on.
    NOMINAL_S = {"interpreter": 0.010, "lapack": 0.007}

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.nominal = self.NOMINAL_S[kind]
        self.work = {"interpreter": self._interpreter, "lapack": self._lapack}[kind]
        self.small = rng.standard_normal((200, 16, 1)) + 1j * rng.standard_normal((200, 16, 1))
        self.mid = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.big = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        for _ in range(5):
            self.work()

    def _interpreter(self) -> None:
        np = self.np
        for m in self.small:
            q, r = np.linalg.qr(m)
            d = np.diagonal(r)
            q * (d / np.abs(d))
        for _ in range(4):
            np.linalg.qr(self.mid)

    def _lapack(self) -> None:
        q, _ = self.np.linalg.qr(self.big)
        q @ self.big

    def _unit(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Median time of three units over the nominal time; above 1 when
        the host runs slow."""
        return statistics.median(self._unit() for _ in range(3)) / self.nominal


class Runner:
    def __init__(self, cli, cfg, args):
        import workloads

        self.cli, self.cfg, self.args = cli, cfg, args
        self.workloads = workloads
        with open(args.config, encoding="utf-8") as fh:
            self.raw = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _run(self, out: str):
        """One checked run; its wall time, or None when it failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            report = self.cli.run(self.cfg)
            self.cli.write_report(report, out)
            wall = time.perf_counter() - t0
            with open(os.path.join(out, "trials.csv"), encoding="utf-8") as fh:
                trials_csv = fh.read()
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            problems = self.workloads.check(self.args.workload, self.raw, trials_csv, summary)
        except Exception as exc:  # a failed run is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return wall

    def measure(self) -> dict:
        out = self.args.out
        self._run(os.path.join(out, "warmup"))
        deadline = time.perf_counter() + self.args.seconds
        measure = self._traced_pairs if self.args.trace else self._untraced
        measured = measure(out, deadline)
        measured.update(attempted=self.attempted, failed=self.failed,
                        problems=self.problems[:20],
                        trials=self.workloads.trials(self.raw))
        return measured

    @staticmethod
    def _repeat(step, deadline) -> list:
        """Results of ``step()`` repeated until the next call, if it takes as
        long as the last one, would end after ``deadline``; at least one."""
        results = []
        while True:
            t0 = time.perf_counter()
            value = step(len(results))
            if value is not None:
                results.append(value)
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                return results

    def _untraced(self, out, deadline) -> dict:
        run_dir = os.path.join(out, "run")
        reference = ReferenceKernel(self.workloads.REFERENCE_KERNEL[self.args.workload])

        def step(_):
            before = reference.scale()
            wall = self._run(run_dir)
            after = reference.scale()
            return None if wall is None else (wall, (before + after) / 2)

        samples = self._repeat(step, deadline)
        return {"walls": [w for w, _ in samples],
                "reference_scale": [r for _, r in samples]}

    def _traced_pairs(self, out, deadline) -> dict:
        import spans

        w = self.workloads

        def pair(index):
            walls, tracer = {}, spans.Tracer()
            # Alternate which side runs first so warm-up effects cancel.
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                side = os.path.join(out, "traced" if traced else "untraced")
                restore = spans.install(tracer, w.TARGETS, "gaplab") if traced else None
                try:
                    walls[traced] = self._run(side)
                finally:
                    if restore is not None:
                        restore()
            if None in walls.values():
                return None
            csv_bytes = []
            for side in ("untraced", "traced"):
                with open(os.path.join(out, side, "trials.csv"), "rb") as fh:
                    csv_bytes.append(fh.read())
            if csv_bytes[0] != csv_bytes[1]:
                self.failed += 1
                self.problems.append("traced trials.csv differs from the untraced one")
                return None
            metrics = spans.summarize(tracer.spans, w.TARGETS)
            for key in w.COUNTERS:
                metrics[key] = tracer.counters.get(key, 0)
            traced_dir = os.path.join(out, "traced")
            metrics[w.REPORT_BYTES] = sum(
                os.path.getsize(os.path.join(traced_dir, f)) for f in os.listdir(traced_dir))
            metrics[w.TRACE_OVERHEAD] = walls[True] - walls[False]
            return metrics, tracer.spans

        pairs = self._repeat(pair, deadline)
        layer = {}
        if pairs:
            spans.write_spans(pairs[-1][1], os.path.join(out, "spans.csv"))
            layer = {k: statistics.median(m[k] for m, _ in pairs) for k in pairs[0][0]}
        return {"layer_metrics": layer, "pairs": len(pairs)}


if __name__ == "__main__":
    sys.exit(main())
