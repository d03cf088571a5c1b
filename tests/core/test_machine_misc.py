"""Miscellaneous FlickMachine API behaviours."""

import dataclasses
import pathlib
import re

import pytest

import repro
from repro import DEFAULT_CONFIG, FlickConfig, FlickMachine

SRC = """
@nxp func dev(x) { return x + 1; }
func main(a) { return dev(a); }
"""


class TestRunControl:
    def test_run_until_stops_midway(self):
        machine = FlickMachine()
        exe = machine.compile(SRC)
        process = machine.load(exe)
        thread = machine.spawn(process, args=[1])
        machine.run(until=5_000)  # 5us: migration still in flight
        assert machine.sim.now == 5_000
        assert thread.result is None
        machine.run()  # finish
        assert thread.result == 2

    def test_run_reports_stuck_threads(self):
        machine = FlickMachine()
        exe = machine.compile("func main() { return helper(); } func helper() { return 1; }")
        process = machine.load(exe)
        # Sabotage: spawn at a data address -> crash, caught as stuck.
        with pytest.raises(Exception):
            machine.spawn(process, entry=0x123456, args=[])
            machine.run()

    def test_entry_by_address(self):
        machine = FlickMachine()
        exe = machine.compile(SRC)
        process = machine.load(exe)
        thread = machine.spawn(process, entry=exe.symbol("main"), args=[41])
        machine.run()
        assert thread.result == 42

    def test_outcome_fields(self):
        machine = FlickMachine()
        out = machine.run_program(SRC, args=[1])
        assert out.retval == 2
        assert out.migrations == 1
        assert out.sim_time_us == out.sim_time_ns / 1000
        assert out.process.exit_code == 2
        assert "dma.to_nxp" in out.stats


class TestConfigAPI:
    def test_with_overrides_returns_new_frozen_config(self):
        cfg = DEFAULT_CONFIG.with_overrides(nxp_clock_mhz=400.0)
        assert cfg.nxp_clock_mhz == 400.0
        assert DEFAULT_CONFIG.nxp_clock_mhz == 200.0
        with pytest.raises(Exception):
            cfg.nxp_clock_mhz = 100.0  # frozen

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            DEFAULT_CONFIG.with_overrides(warp_drive_ns=1.0)

    def test_derived_helpers(self):
        cfg = FlickConfig()
        assert cfg.host_cycle_ns == pytest.approx(1 / 2.4)
        assert cfg.nxp_cycle_ns == pytest.approx(5.0)
        assert cfg.host_cycles(24) == pytest.approx(10.0)
        assert cfg.nxp_cycles(10) == pytest.approx(50.0)
        assert cfg.dma_transfer_ns(0) == pytest.approx(
            cfg.dma_setup_ns + cfg.pcie_oneway_ns
        )

    def test_every_field_is_read(self):
        """A knob nothing reads is dead weight: every FlickConfig field
        is read as an attribute somewhere in the package."""
        package = pathlib.Path(repro.__file__).parent
        source = "\n".join(path.read_text() for path in package.rglob("*.py"))
        unread = [
            f.name for f in dataclasses.fields(FlickConfig)
            if not re.search(rf"\.{f.name}\b", source)
        ]
        assert unread == []

    def test_memory_map_predicates(self):
        mm = DEFAULT_CONFIG.memory_map
        assert mm.host_dram_contains(0)
        assert not mm.host_dram_contains(mm.bar0_base)
        assert mm.bar0_contains(mm.bar0_base + 100)
        assert mm.bram_contains(mm.nxp_bram_base)
        assert mm.mmio_contains(mm.mmio_base)
        assert mm.bar0_remap_offset == mm.bar0_base - mm.nxp_local_base


class TestTraceRepr:
    def test_address_attrs_rendered_hex(self):
        machine = FlickMachine()
        machine.run_program(SRC, args=[1])
        start = machine.trace.filter("h2n_call_start")[0]
        assert "target=0x" in repr(start)

    def test_time_rendered_in_us(self):
        machine = FlickMachine()
        machine.run_program(SRC, args=[1])
        assert "us]" in repr(machine.trace.events[0])


class TestDeepNestingHosted:
    def test_five_level_cross_isa_nesting(self):
        """host->nxp->host->nxp->host, hosted mode."""
        from repro.core.hosted import HostedMachine, HostedProgram

        prog = HostedProgram()

        def lvl5(ctx, x):
            return x + 5
            yield

        def lvl4(ctx, x):
            return (yield from ctx.call("lvl5", x + 4))

        def lvl3(ctx, x):
            return (yield from ctx.call("lvl4", x + 3))

        def lvl2(ctx, x):
            return (yield from ctx.call("lvl3", x + 2))

        def lvl1(ctx, x):
            return (yield from ctx.call("lvl2", x + 1))

        prog.register("lvl5", "hisa", lvl5)
        prog.register("lvl4", "nisa", lvl4)
        prog.register("lvl3", "hisa", lvl3)
        prog.register("lvl2", "nisa", lvl2)
        prog.register("lvl1", "hisa", lvl1)
        out = HostedMachine(prog).run("lvl1", [0])
        assert out.retval == 15

    def test_unknown_hosted_function_raises(self):
        from repro.core.hosted import HostedMachine, HostedProgram

        prog = HostedProgram()

        def main(ctx):
            return (yield from ctx.call("ghost"))

        prog.register("main", "hisa", main)
        with pytest.raises(Exception):
            HostedMachine(prog).run("main")
