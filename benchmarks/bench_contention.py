"""Extra experiment: NxP contention under concurrent migrating threads.

The paper evaluates one migrating thread; a natural systems question is
what happens when several host threads share the single NxP core.  The
NxP scheduler serializes dispatches, so per-thread round-trip latency
grows with the number of concurrently migrating threads while total
throughput saturates at the NxP's service rate.
"""

from repro import FlickMachine
from repro.analysis import render_table

SRC = """
@nxp func work(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = acc + i; i = i + 1; }
    return acc;
}
func main(calls, n) {
    var i = 0;
    while (i < calls) { work(n); i = i + 1; }
    return 0;
}
"""

CALLS = 12
WORK = 50


def _per_pid_spans(machine):
    """Round-trip spans paired per PID (concurrent traces interleave)."""
    open_start = {}
    spans = []
    for event in machine.trace.events:
        pid = event.pid
        if event.name == "h2n_call_start":
            open_start[pid] = event.time
        elif event.name == "h2n_call_done" and pid in open_start:
            spans.append(event.time - open_start.pop(pid))
    return spans


def _run(threads: int):
    machine = FlickMachine(host_cores=max(threads, 2))
    exe = machine.compile(SRC)
    handles = []
    for i in range(threads):
        process = machine.load(exe, name=f"p{i}")
        handles.append(machine.spawn(process, args=[CALLS, WORK]))
    machine.run()
    finish = max(t.finished_at for t in handles)
    spans = _per_pid_spans(machine)
    steady = spans[threads:]  # skip first-migration outliers
    avg_rt = sum(steady) / len(steady)
    throughput = (threads * CALLS) / (finish / 1e9) / 1e3  # k-migrations/s
    return avg_rt, throughput, finish


def test_nxp_contention(benchmark, report):
    results = {}

    def run():
        for threads in (1, 2, 4, 8):
            results[threads] = _run(threads)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (f"{t} thread(s)", f"{rt / 1000:.1f}us", f"{tp:.1f}k/s", f"{fin / 1e6:.2f}ms")
        for t, (rt, tp, fin) in results.items()
    ]
    report(
        "Extra: NxP contention (concurrent migrating threads)",
        render_table(
            ["Concurrency", "avg round trip", "migration throughput", "makespan"], rows
        ),
    )

    rts = {t: rt for t, (rt, _tp, _f) in results.items()}
    tps = {t: tp for t, (_rt, tp, _f) in results.items()}
    # Each call occupies the NxP for most of its round trip, so the NxP
    # saturates almost immediately: queueing delay shows up by 4-8
    # threads, and throughput stays pinned at the NxP service rate.
    assert rts[8] > 1.5 * rts[1]
    assert rts[4] > rts[1]
    assert tps[2] >= tps[1]
    assert tps[8] < tps[2] * 1.15  # saturated, not scaling
