"""phasefisher benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/` through PYTHONPATH; nothing is installed). Each operation is a fresh
child process, run one after another from this process (closed loop, one
client). Operations come in fixed batches drawn from the seed; batches run
until the next one would end past --seconds, and at least one always runs.

This host's speed drifts by tens of percent within seconds. So everything
runs on one CPU, a fixed kernel of interpreter and memory work is timed in
this process before and after each op and, with the op stopped, every
SLICE_S during it, and every time is reported scaled to a host on which
the kernel takes CAL_REF_S; the raw times are printed and kept in
perfbench/out/.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced runs of the same batches, reports the per-layer metrics from the
traced ones and the tracing overhead between the two. The last line of
stdout is the result JSON; the lines before it, and perfbench/out/, hold
the environment, the failures and the op_tail_ms percentile. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"

BLAS_THREADS = 1
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SETUP_CODE = "import phasefisher; phasefisher.qfi_ecs_ref(1.0, 0.9)"
# every child is killed and every run ends before this, whatever the workload
RUN_DEADLINE_S = 165.0
# dense footprint of an oracle point: this many (dim x dim) complex matrices at once
ORACLE_DENSE_COPIES = 4
ORACLE_BASE_BYTES = 100 * 2**20
MEMORY_CAP_BYTES = min(
    int(2.5 * 2**30), os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 3
)

DEFAULT_SWEEP_POINTS = 200
DENSE_SWEEP_POINTS = 40000
LADDER_ALPHAS = (1.0, 2.0, 3.0, 3.5)


# --- workloads: each returns one batch of ops drawn from rng ---------------


def _point(family, reference_, eta, alpha=None, n=None, oracle=False):
    op = {
        "kind": "point",
        "family": family,
        "reference": reference_,
        "eta": eta,
        "alpha": alpha,
        "n": n,
        "oracle": oracle,
        "timeout": 60.0,
    }
    argv = ["point", "--family", family, "--eta", repr(eta), "--reference", reference_]
    argv += ["--alpha", repr(alpha)] if family == "ecs" else ["--n", str(n)]
    if oracle:
        argv.append("--oracle")
        op["est_bytes"] = oracle_bytes(family, alpha, n)
    op["cli"] = argv
    return op


def cli_oneshot_batch(rng: random.Random, k: int) -> list[dict]:
    def eta(lo=0.5):
        return round(rng.uniform(lo, 0.99), 6)

    ops = [
        _point("ecs", "with", eta(), alpha=round(rng.uniform(0.3, 3.0), 6)),
        _point("ecs", "with", eta(), alpha=round(rng.uniform(0.3, 3.0), 6)),
        _point("ecs", "without", eta(), alpha=round(rng.uniform(0.3, 3.0), 6)),
        _point("ecs", "without", eta(), alpha=round(rng.uniform(0.3, 3.0), 6)),
        _point("noon", "with", eta(), n=rng.randint(1, 30)),
        _point("noon", "without", eta(), n=rng.randint(1, 30)),
        # the alpha = 1.5 point fixes the batch's largest oracle state
        _point("ecs", "with", eta(0.6), alpha=1.5, oracle=True),
        _point("ecs", "without", eta(0.6), alpha=round(rng.uniform(0.5, 1.5), 6), oracle=True),
        _point("noon", rng.choice(("with", "without")), eta(0.6), n=rng.randint(1, 8), oracle=True),
        _sweep(eta(), DEFAULT_SWEEP_POINTS, k, 0, sample=DEFAULT_SWEEP_POINTS, rng=rng),
        _crossings(round(rng.uniform(0.5, 0.95), 6)),
    ]
    rng.shuffle(ops)
    return ops


def _sweep(eta, points, k, j, sample, rng):
    path = OUT / f"sweep-{k}-{j}.csv"
    rows = sorted({0, points - 1, *rng.sample(range(points), min(sample, points))})
    return {
        "kind": "sweep",
        "eta": eta,
        "points": points,
        "path": path,
        "sample": rows,
        "timeout": 60.0,
        "cli": ["sweep", "--eta", repr(eta), "--points", str(points), "--output", str(path)],
    }


def _crossings(eta):
    return {"kind": "crossings", "eta": eta, "timeout": 60.0, "cli": ["crossings", "--eta", repr(eta)]}


def dense_sweep_batch(rng: random.Random, k: int) -> list[dict]:
    return [
        _sweep(round(rng.uniform(0.5, 0.99), 6), DENSE_SWEEP_POINTS, k, j, sample=16, rng=rng)
        for j in range(2)
    ]


def oracle_ladder_batch(rng: random.Random, k: int) -> list[dict]:
    ops = []
    for alpha in LADDER_ALPHAS:
        for ref in ("with", "without"):
            eta = round(rng.uniform(0.6, 0.99), 6)
            ops.append({
                "kind": "oracle",
                "family": "ecs",
                "reference": ref,
                "eta": eta,
                "alpha": alpha,
                "rung": rung(alpha, ref),
                "est_bytes": oracle_bytes("ecs", alpha, None),
                "timeout": 120.0,
                "oracle_argv": ["oracle", repr(alpha), repr(eta), ref],
            })
    return ops


def verify_suite_batch(rng: random.Random, k: int) -> list[dict]:
    return [{"kind": "verify", "timeout": 150.0, "cli": ["verify"]}]


WORKLOADS = {
    "cli_oneshot": cli_oneshot_batch,
    "dense_sweep": dense_sweep_batch,
    "oracle_ladder": oracle_ladder_batch,
    "verify_suite": verify_suite_batch,
}


def rung(alpha: float, ref: str) -> str:
    return f"a{alpha:g}-{ref}".replace(".", "p")


def oracle_bytes(family: str, alpha: float | None, n: int | None) -> int:
    """Dense footprint of one oracle point, from the cutoff the oracle will pick."""
    n_max = n if family == "noon" else math.ceil(alpha * alpha + 10.0 * alpha + 20.0)
    dim = (n_max + 1) ** 2
    return ORACLE_DENSE_COPIES * 16 * dim * dim + ORACLE_BASE_BYTES


# --- host speed ------------------------------------------------------------

# the kernel's median time on the host the ROADMAP baseline was taken on;
# its loop and its page fill take about the same share of that time
CAL_REF_S = 0.03
CAL_LOOP = 150_000
CAL_BYTES = 16 * 2**20
# a sliced op runs this long between two kernel samples
SLICE_S = 0.1


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds this thread takes for a fixed mix of interpreter and memory work.

    A pure-Python loop, then a fill and a scan of fresh pages, so that the
    interpreter's speed and the memory system's both count.
    """
    t0, c0 = time.perf_counter(), time.thread_time()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    pages = b"\x01" * CAL_BYTES
    pages.count(b"\x02")
    del pages
    return time.perf_counter() - t0, time.thread_time() - c0


def scaled_runs(items, run):
    """Call run(item) for each item between calibrations; yield each result with its scales.

    res["scale"], which scales wall times, is CAL_REF_S over the mean wall
    time of the kernel just before, during (for a sliced op) and just after
    the call; res["cpu_scale"], which scales CPU times, is the same with the
    kernel's CPU time, so time the host takes the CPU away counts in neither.
    """
    before = calibrate()
    for item in items:
        res = run(item)
        after = calibrate()
        kernels = [before, *res.get("kernels", ()), after]
        res["scale"] = CAL_REF_S / statistics.fmean(k[0] for k in kernels)
        res["cpu_scale"] = CAL_REF_S / statistics.fmean(k[1] for k in kernels)
        yield res
        before = after


def pin_to_one_cpu() -> int:
    """Run this process and every child on one CPU, so the kernel and the ops share it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# --- running one op --------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["TMPDIR"] = str(OUT)
    return env


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], timeout: float, tag: str, sliced: bool = True) -> dict:
    """Run cmd to completion; wall time, children rusage and output.

    With sliced, the child is stopped every SLICE_S while the host-speed
    kernel runs on the same CPU, so the kernel samples the host's speed
    all through the op; the pauses are left out of wall_s and their kernel
    times returned as "kernels". Ops whose own clock is read (traced ops,
    -X importtime) run unsliced. The child is reaped with os.wait4 so its
    own ru_maxrss and CPU time are read; a timer kills its process group
    once timeout passes.
    """
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    kernels = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err, start_new_session=True
        )
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            _signal_group(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        exited = os.pidfd_open(proc.pid)
        try:
            wall, resumed = 0.0, t0
            while sliced and not select.select([exited], [], [], SLICE_S)[0]:
                _signal_group(proc.pid, signal.SIGSTOP)
                wall += time.perf_counter() - resumed
                kernels.append(calibrate())
                _signal_group(proc.pid, signal.SIGCONT)
                resumed = time.perf_counter()
            _, status, usage = os.wait4(proc.pid, 0)
            wall += time.perf_counter() - resumed
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            timer.cancel()
            os.close(exited)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": timed_out.is_set(),
        "kernels": kernels,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


def run_op(op: dict, tag: str, spans: Path | None, deadline: float) -> dict:
    est = op.get("est_bytes")
    if est is not None and est > MEMORY_CAP_BYTES:
        return {"status": "skipped", "reason": f"skipped: est {est / 2**30:.1f} GB"}
    timeout = min(op["timeout"], deadline - time.monotonic())
    if timeout <= 0:
        return {"status": "skipped", "reason": "skipped: run deadline reached"}
    if "cli" in op and spans is None:
        cmd = [sys.executable, "-m", "phasefisher.cli", *op["cli"]]
    else:
        args = ["cli", *op["cli"]] if "cli" in op else op["oracle_argv"]
        trace_args = ["--spans", str(spans)] if spans is not None else []
        cmd = [sys.executable, str(WORKER), *trace_args, *args]
    res = spawn(cmd, timeout, tag, sliced=spans is None)
    if res["timed_out"]:
        res.update(status="failed", reason=f"timeout after {timeout:.0f} s")
    elif res["code"] != 0 or "Traceback" in res["stderr"]:
        tail = res["stderr"].strip().splitlines()[-1:] or [""]
        res.update(status="failed", reason=f"exit {res['code']}: {tail[0][:200]}")
    else:
        res["status"] = "ok"
    return res


def check(op: dict, res: dict) -> str | None:
    """Compare one op's output with the independent reference; None when right."""
    kind = op["kind"]
    if kind == "point":
        return reference.check_point(op, res["stdout"])
    if kind == "oracle":
        lines = res["stdout"].split()
        return reference.check_oracle_value(op, float(lines[-1]) if lines else None)
    if kind == "crossings":
        return reference.check_crossings(res["stdout"], op["eta"])
    if kind == "verify":
        return reference.check_verify(res["stdout"])
    text = op["path"].read_text(encoding="ascii")
    op["path"].unlink()
    return reference.check_sweep_rows(text, op["eta"], op["points"], op["sample"])


def run_batch(ops: list[dict], name: str, traced: bool, deadline: float) -> dict:
    """Run ops one after another; each result gets its host-speed scale."""

    def run(j):
        spans = OUT / "spans" / f"op{j}.json" if traced else None
        return run_op(ops[j], f"{name}-op{j}", spans, deadline)

    results = list(scaled_runs(range(len(ops)), run))
    # outputs are checked after the batch, so checking costs no measured time
    for op, res in zip(ops, results):
        if res["status"] != "ok":
            continue
        try:
            reason = check(op, res)
        except (ValueError, IndexError, OSError, ZeroDivisionError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            res.update(status="wrong", reason=reason)
    if traced:
        for j, res in enumerate(results):
            path = OUT / "spans" / f"op{j}.summary.json"
            if path.exists():
                res["summary"] = json.loads(path.read_text(encoding="ascii"))
    ran = [r for r in results if "wall_s" in r]
    return {
        "wall_s": sum(r["wall_s"] * r["scale"] for r in ran),
        "cpu_s": sum(r["cpu_s"] * r["cpu_scale"] for r in ran),
        "raw_wall_s": sum(r["wall_s"] for r in ran),
        "ops": ops,
        "results": results,
    }


# --- set-up and import measurements ----------------------------------------


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up processes: scaled to host speed, and raw."""
    scaled, raw = [], []
    cmd = [sys.executable, "-c", SETUP_CODE]
    for res in scaled_runs(range(SETUP_REPEATS), lambda i: spawn(cmd, 60.0, f"setup-{i}")):
        if res["code"] != 0:
            raise RuntimeError(f"set-up failed: {res['stderr'].strip()[-300:]}")
        scaled.append(res["wall_s"] * res["scale"])
        raw.append(res["wall_s"])
    return scaled, raw


def measure_imports() -> dict:
    """Cumulative import time of phasefisher and of everything under scipy, in ms."""
    pf, sp = [], []
    cmd = [sys.executable, "-X", "importtime", "-c", "import phasefisher"]
    runs = scaled_runs(range(IMPORT_REPEATS), lambda i: spawn(cmd, 60.0, f"import-{i}", sliced=False))
    for res in runs:
        scale = res["scale"]
        entries = []
        for line in res["stderr"].splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                entries.append((len(m.group(3)), int(m.group(2)), m.group(4)))
        # children precede their parent; walk backwards to know each one's ancestors
        scipy_us, ancestors = 0, []
        for indent, cum, mod in reversed(entries):
            while ancestors and ancestors[-1][0] >= indent:
                ancestors.pop()
            top = mod.split(".")[0]
            if top == "scipy" and not any(a[1] == "scipy" for a in ancestors):
                scipy_us += cum
            if mod == "phasefisher":
                pf.append(cum * scale / 1000.0)
            ancestors.append((indent, top))
        sp.append(scipy_us * scale / 1000.0)
    return {"import.phasefisher_ms": statistics.median(pf), "import.scipy_ms": statistics.median(sp)}


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "memory_cap_gb": round(MEMORY_CAP_BYTES / 2**30, 2),
    }


# --- metrics ---------------------------------------------------------------

SPAN_METRICS = {
    "cli.sweep_rows": ("self_ms",),
    "cli.find_crossings": ("self_ms",),
    "states.alpha_for_mean_photon": ("calls", "self_ms"),
    "qfi_analytic.qfi_ecs_ref": ("self_ms",),
    "qfi_analytic.qfi_ecs_noref": ("self_ms",),
    "qfi_analytic.qfi_ecs_ref_asymptotic": ("self_ms",),
    "qfi_analytic.qfi_noon_continuous": ("self_ms",),
    "qfi_analytic.sigma_spectrum": ("self_ms",),
    "fock_core.DensityOperator": ("calls", "self_ms"),
    "channels.apply_loss": ("calls", "self_ms"),
    "channels.apply_loss_via_bs": ("self_ms",),
    "channels.bs_pair_unitary": ("self_ms",),
    "channels.phase_average": ("self_ms",),
    "qfi_oracle.scenario_mixture": ("self_ms",),
    "qfi_oracle.two_level_matrix_numeric": ("self_ms",),
    "qfi_oracle.verify_all": ("self_ms",),
    "qfi_oracle.build_scenario": ("calls", "self_ms"),
    "qfi_oracle.scenario_qfi": ("calls", "self_ms"),
    "qfi_oracle.qfi_numeric": ("calls", "self_ms"),
}
RUNGS = [rung(a, r) for a in LADDER_ALPHAS for r in ("with", "without")]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def by_kind(batches: list[dict]) -> dict:
    """Median wall time and largest RSS of the ops of each kind (oracle rungs apart)."""
    groups: dict[str, list[dict]] = {}
    for b in batches:
        for op, r in zip(b["ops"], b["results"]):
            if "wall_s" in r:
                label = op.get("rung") or op["kind"] + (" --oracle" if op.get("oracle") else "")
                groups.setdefault(label, []).append(r)
    return {
        label: {
            "p50_ms": statistics.median(r["wall_s"] * r["scale"] * 1e3 for r in rs),
            "raw_p50_ms": statistics.median(r["wall_s"] * 1e3 for r in rs),
            "rss_mb": max(r["rss_mb"] for r in rs),
            "samples": len(rs),
        }
        for label, rs in sorted(groups.items())
    }


def end_to_end(setup: list[float], batches: list[dict]) -> dict:
    results = [r for b in batches for r in b["results"]]
    ran = [r for r in results if "wall_s" in r]
    ok = sum(r["status"] == "ok" for r in results)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (_median([b["wall_s"] for b in batches]), "s"),
        "cpu_s": (_median([b["cpu_s"] for b in batches]), "s"),
        "op_p50_ms": (_median([r["wall_s"] * r["scale"] * 1e3 for r in ran]), "ms"),
        "peak_rss_mb": (max((r["rss_mb"] for r in ran), default=0.0), "MB"),
        "ops_ok_frac": (ok / len(results), "frac"),
    }


def op_tail(batches: list[dict]) -> dict | None:
    """The highest percentile of op latency with at least ten samples beyond it.

    Omitted below 20 ops, where that percentile would fall under the median.
    """
    walls = sorted(
        r["wall_s"] * r["scale"] * 1e3 for b in batches for r in b["results"] if "wall_s" in r
    )
    if len(walls) < 20:
        return None
    return {
        "value": walls[-11],
        "percentile": math.floor(100 * (len(walls) - 10) / len(walls)),
        "samples": len(walls),
    }


def per_layer(imports: dict, untraced: list[dict], traced: list[dict]) -> dict:
    nb = len(traced)
    calls: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    counters = {"dense_bytes": 0, "loss_occupied": 0, "loss_dim": 0, "support_max": 0}
    for b in traced:
        for r in b["results"]:
            s = r.get("summary")
            if s is None:
                continue
            for k, v in s["calls"].items():
                calls[k] = calls.get(k, 0) + v
            for k, v in s["self_ms"].items():
                self_ms[k] = self_ms.get(k, 0.0) + v * r["scale"]
            c = s["counters"]
            for k in ("dense_bytes", "loss_occupied", "loss_dim"):
                counters[k] += c[k]
            counters["support_max"] = max(counters["support_max"], c["support_max"])
    metrics = {k: (v, "ms") for k, v in imports.items()}
    for span, fields in SPAN_METRICS.items():
        for f in fields:
            total = (calls if f == "calls" else self_ms).get(span, 0)
            metrics[f"{span}.{f}"] = (total / nb, "count" if f == "calls" else "ms")
    metrics["fock_core.dense_bytes"] = (counters["dense_bytes"] / nb, "bytes")
    loss_dim = counters["loss_dim"]
    metrics["channels.apply_loss.support_frac"] = (
        counters["loss_occupied"] / loss_dim if loss_dim else 0.0,
        "frac",
    )
    metrics["qfi_oracle.qfi_numeric.support_max"] = (counters["support_max"], "count")
    for rung in RUNGS:
        rss = [
            r["rss_mb"]
            for b in untraced
            for op, r in zip(b["ops"], b["results"])
            if op.get("rung") == rung and "rss_mb" in r
        ]
        metrics[f"qfi_oracle.rss_mb.{rung}"] = (max(rss, default=0.0), "MB")
    overhead = _median([b["wall_s"] for b in traced]) / _median([b["wall_s"] for b in untraced]) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


# --- main ----------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "phasefisher" / "__init__.py").is_file():
        print(f"error: no phasefisher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps the op it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_DEADLINE_S
    shutil.rmtree(OUT, ignore_errors=True)
    (OUT / "spans").mkdir(parents=True)
    env = environment(args.seed)
    env["pinned_cpu"] = pin_to_one_cpu()
    print("env " + json.dumps(env))

    rng = random.Random(args.seed)
    make_batch = WORKLOADS[args.workload]
    traced = bool(args.trace)
    if traced:
        imports = measure_imports()
    else:
        setup, setup_raw = measure_setup()

    t0 = time.monotonic()
    untraced_batches, traced_batches = [], []
    k = 0
    while True:
        ops = make_batch(rng, k)
        b0 = time.monotonic()
        untraced_batches.append(run_batch(ops, f"b{k}", False, deadline))
        if traced:
            traced_batches.append(run_batch(ops, f"b{k}-traced", True, deadline))
        k += 1
        now = time.monotonic()
        if now + (now - b0) > t0 + args.seconds or now + (now - b0) > deadline:
            break

    batches = untraced_batches + traced_batches
    results = [r for b in batches for r in b["results"]]
    failed = [r for r in results if r["status"] != "ok"]
    record = {"workload": args.workload, "env": env, "ops_by_kind": by_kind(untraced_batches)}
    if traced:
        metrics = per_layer(imports, untraced_batches, traced_batches)
        record["batch_wall_s"] = {
            "untraced": [b["wall_s"] for b in untraced_batches],
            "traced": [b["wall_s"] for b in traced_batches],
            "untraced_raw": [b["raw_wall_s"] for b in untraced_batches],
            "traced_raw": [b["raw_wall_s"] for b in traced_batches],
        }
    else:
        metrics = end_to_end(setup, untraced_batches)
        record["setup_samples_s"] = {"scaled": setup, "raw": setup_raw}
        record["batch_wall_s"] = {
            "scaled": [b["wall_s"] for b in untraced_batches],
            "raw": [b["raw_wall_s"] for b in untraced_batches],
        }
        record["op_tail_ms"] = op_tail(untraced_batches)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if record.get("op_tail_ms"):
        info = record["op_tail_ms"]
        print(f"op_tail_ms = {info['value']:.6g} ms (p{info['percentile']} of {info['samples']} ops)")
    for label, info in record["ops_by_kind"].items():
        print(
            f"ops {label}: p50 {info['p50_ms']:.1f} ms (raw {info['raw_p50_ms']:.1f}),"
            f" rss {info['rss_mb']:.0f} MB, {info['samples']} ops"
        )
    if traced:
        walls = record["batch_wall_s"]
        print(f"batch wall: untraced {_median(walls['untraced']):.3f} s, traced {_median(walls['traced']):.3f} s")
    else:
        print(
            f"raw: setup {statistics.median(setup_raw):.4f} s,"
            f" batch wall {_median(record['batch_wall_s']['raw']):.4f} s"
        )
    scales = [r["scale"] for r in results if "scale" in r] or [0.0]
    print(f"host speed scale: median {_median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}")
    for r in failed:
        print(f"failed op: {r['status']}: {r['reason']}")
    summary = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(summary)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
