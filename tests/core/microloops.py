"""The interpreted microloops and the all-off reference config.

Shared by the fast-path and JIT parity suites, the drift pin and the
speedup floors.  The null-call loop makes every iteration a full Flick
migration, so it exercises interpreter, ports, TLBs, DMA and the DES
engine together.  The compute loop stays on the host core and isolates
pure interpreter + decode overhead (and, with the JIT on, superblocks).
The NxP loop runs resident on the NxP core, so with the JIT on its
superblocks replay the NxP's I-fetch and BRAM stack traffic.
"""

from repro.core.config import FlickConfig

NULL_CALL_LOOP = """
@nxp func f(x) { return x + 1; }
func main(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = f(acc) + i; i = i + 1; }
    return acc;
}
"""

COMPUTE_LOOP = """
func main(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = acc * 3 + i; i = i + 1; }
    return acc;
}
"""

#: A NISA-side hot loop: the whole body (including the BRAM stack
#: spills the compiler emits) must compile on the NxP interpreter.
NXP_LOOP = """
@nxp func work(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = acc + i * 2; i = i + 1; }
    return acc;
}
func main(n) { return work(n); }
"""


def slow_config() -> FlickConfig:
    """Every fast path off, the tracing JIT included: the reference
    timing path every fast path must match bit-for-bit."""
    return FlickConfig(
        decode_cache=False,
        engine_fast_path=False,
        jit_enabled=False,
    )
