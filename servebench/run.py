"""Served-system benchmark: the BV-tree behind ``repro.server``, over HTTP.

Run from the repository root::

    python3 servebench/run.py --workload point_lookup --seed 1 --seconds 24 --trace 0

One run generates the workload's inputs from ``--seed``, starts the
benchmark's server harness (``server.py``, a separate process serving the
columnar tree through ``repro.server``), and drives it from this process
over two keep-alive connections, client and server pinned to one CPU
each:

1. set-up, several times: spawn a server and time it to its first
   ``/health`` 200 (``setup_s`` is the median);
2. a one-second warm-up;
3. an open loop at the workload's fixed rate from ``workloads.json`` for
   half of ``--seconds`` (per-kind latency, timed from each request's due
   time), then the server's peak RSS (``server_rss_mb``);
4. a closed loop for the other half (``throughput_ops_s``, the headline
   kind's median latency ``p50_ms``, and the server's CPU time per op,
   ``server_cpu_us_per_op``);
5. for ``write_mix``: SIGKILL with writes in flight, recovery with
   ``open_durable_tree``, the checker, and every acknowledged write looked
   up (``durable.recover_s``, ``disk_bytes_per_write``).

Every answer is checked against the expected one.  The text lines name
every metric with its unit; the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
per-layer metrics with ``--trace 1``.  A traced run measures an untraced
closed loop, then a second server with every layer's entry points
wrapped (``spans.py``); its spans are written as JSONL under
``.servebench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import selftest  # noqa: E402
import stats  # noqa: E402
from client import Loader, PhaseResult  # noqa: E402
from workloads import WriteMix, point_lookup, range_scan, write_mix  # noqa: E402

CONFIG = json.loads((HERE / "workloads.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
OUT = ROOT / ".servebench_out"
SETUP_SPAWNS = 5
WARMUP_S = 1.0
#: Throughput is the median over this many equal windows of the closed
#: loop, so one stall moves one window rather than the run's figure.
WINDOWS = 5
#: Latency is the median over up to this many windows of a phase, as
#: many as hold ``SAMPLES_PER_WINDOW`` each (a p99 with 10 samples
#: beyond it); hypervisor stalls come in bursts, so more windows keep a
#: burst to a minority of them.
LATENCY_WINDOWS = 10
SAMPLES_PER_WINDOW = 1000
START_TIMEOUT_S = 120.0
#: Upper bound on the write rate any phase can reach; sizes the planned
#: write sequence (running out fails the run loudly).
WRITES_PER_S_BOUND = 2000


def pin_cpus() -> list[str]:
    """Pin this client to one CPU and return the server's ``--cpu`` flag.

    Client and server ping-pong over loopback; left to the scheduler,
    wake-up affinity sometimes stacks both on one CPU and halves the
    throughput for a whole run.  One CPU each keeps runs comparable (the
    server's GIL lets it use only about one CPU anyway).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return []
    os.sched_setaffinity(0, {cpus[0]})
    return ["--cpu", str(cpus[1])]


SERVER_CPU: list[str] = []


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """One ``server.py serve`` process, timed from spawn to healthy."""

    def __init__(self, run_dir: Path, name: str, args: list[str]):
        self.log_path = run_dir / f"{name}.log"
        self._log = open(self.log_path, "wb")
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "serve", *args, *SERVER_CPU],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=ROOT,
        )
        try:
            deadline = t0 + START_TIMEOUT_S
            self.port = self._read_port(deadline)
            self._await_health(deadline)
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - t0

    def _read_port(self, deadline: float) -> int:
        out = self.proc.stdout
        assert out is not None
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([out], [], [], max(0.0, deadline - perf_counter()))
            if not ready:
                raise TimeoutError("server did not report its port")
            chunk = os.read(out.fileno(), 64)
            if not chunk:
                raise RuntimeError(f"server exited during set-up; see {self.log_path}")
            line += chunk
        if not line.startswith(b"PORT "):
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(line[5:])

    def _await_health(self, deadline: float) -> None:
        while perf_counter() < deadline:
            with socket.create_connection(("127.0.0.1", self.port), timeout=5) as sock:
                sock.sendall(b"GET /health HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
                head = sock.recv(64)
            if head.startswith(b"HTTP/1.1 200"):
                return
            time.sleep(0.005)
        raise TimeoutError("server never reported healthy")

    def rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """CPU seconds (user + system, all threads) the server used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """SIGTERM, then SIGKILL if it does not exit within 10 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()
        self._log.close()


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------


class Inputs:
    """The generated records and a factory for fresh request sources."""

    def __init__(self, workload: str, seed: int, seconds: float, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.durable = workload == "write_mix"
        self.records = run_dir / "records.bin"
        if workload == "point_lookup":
            pts, self._pool = point_lookup(seed)
        elif workload == "range_scan":
            pts, self._pool = range_scan(seed)
        elif workload == "write_mix":
            self._writes = int(WRITES_PER_S_BOUND * (seconds + 2 * WARMUP_S + 2))
            pts, self._held_out = write_mix(seed, self._writes)
            self._pts = pts
        else:
            raise SystemExit(f"unknown workload {workload!r}")
        pts.astype("=f8").tofile(self.records)
        self.pristine = run_dir / "pristine"
        self._copies = 0
        if self.durable:
            subprocess.run(
                [sys.executable, str(HERE / "server.py"), "build",
                 "--records", str(self.records), "--store", str(self.pristine)],
                check=True,
                cwd=ROOT,
                timeout=START_TIMEOUT_S,
            )

    def source(self) -> Any:
        if self.durable:
            return WriteMix(self._pts, self._held_out, self._writes, self.seed)
        return self._pool

    def server_args(self) -> tuple[list[str], Path | None]:
        """Arguments for one fresh server (a fresh store copy if durable)."""
        if not self.durable:
            return ["--records", str(self.records)], None
        self._copies += 1
        store = self.run_dir / f"store{self._copies}"
        shutil.copytree(self.pristine, store)
        return ["--store", str(store)], store


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


class Tally:
    """Attempted and failed requests across every phase of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.acked_writes = 0
        #: Per-layer metrics a traced run expected samples for and got none.
        self.unsampled: list[str] = []

    def add(self, res: PhaseResult) -> PhaseResult:
        self.attempted += res.attempted
        self.failed += res.failures
        self.acked_writes += res.ok.get("write", 0)
        return res


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs from ``/proc/stat``."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def run_load(
    loader: Loader,
    tally: Tally,
    server: Server,
    seconds: float,
    rate: float | None,
    before_open: Any = None,
    after_open: Any = None,
) -> tuple[PhaseResult, PhaseResult | None]:
    """Warm-up, (given a rate) the open loop, then the closed loop.

    The open loop comes first so that what the server holds at its end
    follows from a fixed amount of work: on ``write_mix`` memory grows
    with every write, and the closed loop's count of writes would tie
    ``server_rss_mb`` to throughput.  ``before_open`` and ``after_open``
    run around the open loop.  The closed loop's ``server_cpu_s`` is the
    server process's CPU time over the phase (all threads, user + system;
    the kernel leaves out time the hypervisor stole from the VM).
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        tally.add(loader.closed_loop(WARMUP_S, timed=False))
        opened = None
        if rate is not None:
            if before_open is not None:
                before_open()
            loader.record = True
            opened = tally.add(loader.open_loop(seconds / 2, rate))
            loader.record = False
            if after_open is not None:
                after_open()
        cpu0 = server.cpu_s()
        closed = tally.add(loader.closed_loop(seconds / 2))
        closed.server_cpu_s = server.cpu_s() - cpu0
    finally:
        gc.enable()
    return closed, opened


def kill_and_recover(server: Server, loader: Loader, source: WriteMix, store: Path, bytes_before: int, tally: Tally) -> dict[str, Any]:
    """SIGKILL with writes in flight, then recover and check the store."""
    loader.send_and_leave([source.next_write() for _ in loader.conns])
    server.kill()
    disk = dir_bytes(store) - bytes_before
    sys.path.insert(0, str(ROOT / "src"))
    from repro.errors import ReproError
    from repro.storage.durable.recovery import open_durable_tree

    t0 = perf_counter()
    tree, _ = open_durable_tree(store, sync="commit")
    recover_s = perf_counter() - t0
    mismatches = source.durable_mismatches(dict(tree.items()))
    try:
        tree.check()
    except ReproError as exc:
        log(f"recovered tree fails the checker: {exc}")
        mismatches += 1
    tree.store.close(checkpoint=False)
    return {
        "recover_s": recover_s,
        "disk_bytes_per_write": disk / tally.acked_writes,
        "mismatches": mismatches,
    }


def throughput(res: PhaseResult) -> float:
    """Closed-loop ops per second: the median over ``WINDOWS`` windows."""
    width = (res.end - res.start) / WINDOWS
    counts = stats.windows(res.done, res.done, res.start, res.end, WINDOWS)
    return stats.median([len(w) / width for w in counts])


def kind_latency(res: PhaseResult) -> dict[str, dict[str, Any]]:
    """Per kind, in ms: whole-phase p50/p99 and highest supported tail,
    and the p50/p99 medians over windows of the phase by due time (as
    many windows, up to ``LATENCY_WINDOWS``, as hold ``SAMPLES_PER_WINDOW``)."""
    out = {}
    for kind, lat in sorted(res.latency.items()):
        if kind == "scrape":
            continue
        ms = [v * 1e3 for v in lat]
        tail = stats.highest_supported(len(ms))
        count = stats.window_count(len(ms), SAMPLES_PER_WINDOW, LATENCY_WINDOWS)
        parts = stats.windows(res.due[kind], ms, res.start, res.end, count)
        out[kind] = {
            "n": len(ms),
            "p50": stats.percentile(ms, 50.0),
            "p99": stats.percentile(ms, 99.0),
            "tail_pct": tail,
            "tail": stats.percentile(ms, tail) if tail is not None else None,
            "windows": count,
            "win_p50": stats.median([stats.percentile(w, 50.0) for w in parts]),
            "win_p99": stats.median([stats.percentile(w, 99.0) for w in parts]),
        }
    return out


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def untraced(inputs: Inputs, args: argparse.Namespace, cfg: dict[str, Any], tally: Tally) -> tuple[dict[str, float], list[str]]:
    lines = []
    setups = []
    server = None
    store = None
    try:
        for i in range(SETUP_SPAWNS):
            if server is not None:
                server.kill()
            serve_args, store = inputs.server_args()
            server = Server(inputs.run_dir, f"server{i}", serve_args)
            setups.append(server.setup_s)
        assert server is not None
        bytes_before = dir_bytes(store) if store is not None else 0
        source = inputs.source()
        loader = Loader(server.port, source, args.seed)
        try:
            steal0, total0 = cpu_ticks()
            rss: list[float] = []
            closed, opened = run_load(
                loader, tally, server, args.seconds, cfg["open_loop_rate_ops_s"],
                after_open=lambda: rss.append(server.rss_mb()),
            )
            steal1, total1 = cpu_ticks()
            assert opened is not None
            durability = None
            if inputs.durable:
                durability = kill_and_recover(server, loader, source, store, bytes_before, tally)
        finally:
            loader.close()
    finally:
        if server is not None:
            server.stop()

    lat = kind_latency(opened)
    head = kind_latency(closed)[cfg["headline_kind"]]
    metrics = {
        "setup_s": stats.median(setups),
        "throughput_ops_s": throughput(closed),
        "p50_ms": head["win_p50"],
        "server_cpu_us_per_op": closed.server_cpu_s / closed.completed * 1e6,
        "server_rss_mb": rss[0],
    }
    lines.append(f"  setup_s              {metrics['setup_s']:.4f} s   (median of {len(setups)} spawns: "
                 + ", ".join(f"{s:.3f}" for s in setups) + ")")
    lines.append(f"  throughput_ops_s     {metrics['throughput_ops_s']:.1f} 1/s (closed loop, {len(loader.conns)} "
                 f"connections, median of {WINDOWS} windows; {closed.completed} ops in {closed.end - closed.start:.1f} s)")
    rate = cfg["open_loop_rate_ops_s"]
    for kind, row in lat.items():
        tail = (f"p{row['tail_pct']:g} {row['tail']:.3f} ms" if row["tail"] is not None
                else "no percentile has 10 samples beyond it")
        lines.append(f"  {kind}_p50_ms{'':<{11 - len(kind)}}{row['win_p50']:.4f} ms  {kind}_p99_ms {row['win_p99']:.4f} ms  "
                     f"(open loop at {rate}/s, median of {row['windows']} windows; whole phase: n={row['n']}, "
                     f"p50 {row['p50']:.4f} ms, p99 {row['p99']:.4f} ms, highest supported {tail})")
    lines.append(f"  p50_ms               {metrics['p50_ms']:.4f} ms (closed loop, {cfg['headline_kind']} requests, "
                 f"median of {head['windows']} windows; n={head['n']}; the open-loop figures above are printed, "
                 f"not gated: hypervisor steal and wake-up set them)")
    lines.append(f"  server_cpu_us_per_op {metrics['server_cpu_us_per_op']:.2f} us (server CPU over the closed loop: "
                 f"{closed.server_cpu_s:.2f} s for {closed.completed} ops)")
    lines.append(f"  server_rss_mb        {rss[0]:.1f} MB (VmHWM at the end of the open loop)")
    if durability is not None:
        tally.failed += durability["mismatches"]
        lines.append(f"  disk_bytes_per_write {durability['disk_bytes_per_write']:.1f} bytes "
                     f"(WAL + pagefile growth over {tally.acked_writes} acknowledged writes)")
        lines.append(f"  durable.recover_s    {durability['recover_s']:.4f} s  "
                     f"(checker and every acknowledged write: {durability['mismatches']} problems)")
    lines.append(f"  client.cpu_share     {closed.cpu_share:.3f} (closed loop)  "
                 f"client.lag_ms_p99 {layers.lag_p99_ms(opened.lag):.3f} ms (open loop)")
    lines.append(f"  host steal           {(steal1 - steal0) / max(1, total1 - total0):.4f} of CPU time "
                 f"during the load phases (hypervisor; a high share explains a slow run)")
    for res in (closed, opened):
        warning = stats.pace_warning(res.cpu_share)
        if warning:
            log("WARNING: " + warning)
    return metrics, lines


def traced(inputs: Inputs, args: argparse.Namespace, cfg: dict[str, Any], tally: Tally) -> tuple[dict[str, float], list[str]]:
    spans_path = OUT / f"spans-{inputs.workload}.jsonl"
    half = args.seconds / 2

    serve_args, _ = inputs.server_args()
    server = Server(inputs.run_dir, "reference", serve_args)
    try:
        loader = Loader(server.port, inputs.source(), args.seed)
        try:
            reference, _ = run_load(loader, tally, server, args.seconds, None)
        finally:
            loader.close()
    finally:
        server.stop()

    serve_args, store = inputs.server_args()
    if spans_path.exists():
        spans_path.unlink()
    server = Server(inputs.run_dir, "traced", serve_args + ["--trace-out", str(spans_path)])
    recover_s = None
    try:
        bytes_before = dir_bytes(store) if store is not None else 0
        source = inputs.source()
        loader = Loader(server.port, source, args.seed)

        def dump_spans() -> None:
            server.signal(signal.SIGUSR1)
            deadline = perf_counter() + 60
            while not spans_path.exists():
                if perf_counter() > deadline:
                    raise TimeoutError("traced server did not write its spans")
                time.sleep(0.01)

        try:
            # The dump holds the open loop: SIGUSR2 drops the warm-up's
            # spans, and the closed loop after the dump only feeds the
            # overhead ratio.
            closed, opened = run_load(
                loader, tally, server, args.seconds, cfg["open_loop_rate_ops_s"],
                before_open=lambda: server.signal(signal.SIGUSR2),
                after_open=dump_spans,
            )
            assert opened is not None
            if inputs.durable:
                durability = kill_and_recover(server, loader, source, store, bytes_before, tally)
                tally.failed += durability["mismatches"]
                recover_s = durability["recover_s"]
        finally:
            loader.close()
    finally:
        server.stop()

    values = layers.per_layer(layers.load_spans(str(spans_path)), (opened.start, opened.end), opened.requests)
    values["durable.recover_s"] = (recover_s, 1 if recover_s is not None else 0)
    values["client.cpu_share"] = (reference.cpu_share, reference.completed)
    values["client.lag_ms_p99"] = (layers.lag_p99_ms(opened.lag), len(opened.lag))
    values["trace.overhead_ratio"] = (throughput(closed) / throughput(reference), WINDOWS)
    for res in (reference, opened):
        warning = stats.pace_warning(res.cpu_share)
        if warning:
            log("WARNING: " + warning)

    lines = [f"  spans: {spans_path.relative_to(ROOT)} (open loop {half:.1f} s at {cfg['open_loop_rate_ops_s']}/s)"]
    metrics = {}
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        spec = CONFIG["per_layer"][name]
        value, samples = values[name]
        # The result must carry a number for every per-layer metric, so an
        # idle layer reads 0; a layer this workload is meant to exercise
        # that recorded nothing means a wrapper was bypassed, and its 0
        # (or a parent span absorbing its time) must not pass as a gain.
        if samples == 0 and inputs.workload in spec["sampled_on"]:
            tally.unsampled.append(name)
            log(f"ERROR: {name} recorded no samples, but {inputs.workload} should exercise {spec['layer']}")
        metrics[name] = 0.0 if value is None else float(value)
        shown = "idle (0)" if value is None else f"{value:.4f}"
        lines.append(f"  {spec['layer']:<22} {name:<32} {shown:>12} {metric['unit']:<6} n={samples:<7} {spec['stat']}")
    lines.append("  http.self_us is client latency minus ServingApp.handle: transport, HTTP parse/encode, "
                 "serialisation and the client's own share")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="served-system benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "server" / "http.py").is_file():
        log(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    problems = selftest.run_all()
    if problems:
        for problem in problems:
            log("self-test failed: " + problem)
        return 3

    cfg = CONFIG["workloads"][args.workload]
    SERVER_CPU[:] = pin_cpus()
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    tally = Tally()
    try:
        inputs = Inputs(args.workload, args.seed, args.seconds, run_dir)
        run = traced if args.trace else untraced
        metrics, lines = run(inputs, args, cfg, tally)
    except BaseException:
        for server_log in sorted(run_dir.glob("*.log")):
            log(f"--- {server_log.name} (last 2000 bytes)")
            log(server_log.read_bytes()[-2000:].decode(errors="replace"))
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"servebench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(line)
    failed_ratio = tally.failed / tally.attempted
    print(f"  failed_ratio         {failed_ratio:.6f} ({tally.failed} of {tally.attempted} requests)")
    if tally.unsampled:
        print(f"  unsampled layers     {', '.join(tally.unsampled)} (expected samples on {args.workload})")
    correct = tally.failed == 0 and not tally.unsampled
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
