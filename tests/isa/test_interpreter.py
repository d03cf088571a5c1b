"""Interpreter semantics tests for both ISAs (via assembled programs)."""

import pytest

from repro.isa import assemble
from repro.isa.base import MASK64, IsaFault, IllegalInstruction, MisalignedFetch, RegisterFile
from repro.isa.interpreter import (
    EnvCall,
    Halted,
    ReturnToRuntime,
    RUNTIME_RETURN_ADDR,
)

from .conftest import FlatPort, make_cpu, run_to_exception

CODE_BASE = 0x1000
STACK_TOP = 0x8_0000


def load_and_run(isa, source, args=(), data=None, max_steps=200_000):
    """Assemble, set up a call to offset 0, run to ReturnToRuntime/Halted."""
    port = FlatPort(size=1 << 20)
    code, relocs, labels = assemble(source, isa)
    assert not relocs, "test programs must be self-contained"
    port.write(CODE_BASE, code)
    if data:
        for addr, payload in data.items():
            port.write(addr, payload)
    sim, cpu = make_cpu(isa, port)
    sim.run_process(cpu.setup_call(CODE_BASE, list(args), sp=STACK_TOP), name="setup")
    exc = run_to_exception(sim, cpu, max_steps)
    return exc, cpu, port, sim


class TestNISAPrograms:
    def test_simple_add(self):
        exc, cpu, _port, _sim = load_and_run(
            "nisa",
            """
            add a0, a0, a1
            ret
            """,
            args=[5, 7],
        )
        assert isinstance(exc, ReturnToRuntime)
        assert exc.retval == 12

    def test_loop_sum_1_to_n(self):
        exc, _cpu, _p, _s = load_and_run(
            "nisa",
            """
                mov t0, zero        ; acc
            loop:
                beq a0, zero, done
                add t0, t0, a0
                add a0, a0, -1
                j loop
            done:
                mov a0, t0
                ret
            """,
            args=[10],
        )
        assert exc.retval == 55

    def test_memory_roundtrip(self):
        exc, _cpu, port, _s = load_and_run(
            "nisa",
            """
            li t0, 0x20000
            st a0, 0(t0)
            ld a1, 0(t0)
            add a0, a1, a1
            ret
            """,
            args=[21],
        )
        assert exc.retval == 42
        assert port.read_u64(0x20000) == 21

    def test_subword_accesses(self):
        exc, _cpu, _p, _s = load_and_run(
            "nisa",
            """
            li t0, 0x20000
            li t1, 0x1ff
            sb t1, 0(t0)       ; stores 0xff only
            lbu a0, 0(t0)
            ret
            """,
        )
        assert exc.retval == 0xFF

    def test_function_call_via_ra(self):
        # Like real RISC-V, the caller must spill ra around nested calls.
        exc, _cpu, _p, _s = load_and_run(
            "nisa",
            """
            main:
                add sp, sp, -8
                st ra, 0(sp)
                call double
                call double
                ld ra, 0(sp)
                add sp, sp, 8
                ret
            double:
                add a0, a0, a0
                ret
            """,
            args=[3],
        )
        assert exc.retval == 12

    def test_recursion_fib_with_stack(self):
        exc, _cpu, _p, _s = load_and_run(
            "nisa",
            """
            fib:
                li t0, 2
                blt a0, t0, base
                add sp, sp, -24
                st ra, 0(sp)
                st a0, 8(sp)
                add a0, a0, -1
                call fib
                st a0, 16(sp)
                ld a0, 8(sp)
                add a0, a0, -2
                call fib
                ld t1, 16(sp)
                add a0, a0, t1
                ld ra, 0(sp)
                add sp, sp, 24
                ret
            base:
                ret
            """,
            args=[10],
        )
        assert exc.retval == 55

    def test_signed_arithmetic(self):
        exc, _cpu, _p, _s = load_and_run(
            "nisa",
            """
            li a0, -7
            li a1, 2
            div a2, a0, a1      ; -3 (truncation toward zero)
            rem a3, a0, a1      ; -1
            mul a4, a2, a3      ; 3
            sub a0, a4, a3      ; 3 - (-1) = 4
            ret
            """,
        )
        assert exc.retval == 4

    def test_slt_and_branches(self):
        exc, _cpu, _p, _s = load_and_run(
            "nisa",
            """
            li t0, -1
            li t1, 1
            slt a0, t0, t1      ; 1  (signed)
            sltu a1, t0, t1     ; 0  (unsigned: 2^64-1 > 1)
            shl a0, a0, t1      ; 2
            or a0, a0, a1
            ret
            """,
        )
        assert exc.retval == 2

    def test_zero_register_is_immutable(self):
        exc, _cpu, _p, _s = load_and_run(
            "nisa",
            """
            li zero, 99
            mov a0, zero
            ret
            """,
        )
        assert exc.retval == 0

    def test_halt(self):
        exc, _cpu, _p, _s = load_and_run("nisa", "halt")
        assert isinstance(exc, Halted)

    def test_ecall_raises_envcall_with_resume_pc(self):
        exc, cpu, _p, _s = load_and_run("nisa", "ecall\nret")
        assert isinstance(exc, EnvCall)
        assert exc.pc_after == CODE_BASE + 8
        assert cpu.pc == CODE_BASE + 8

    def test_divide_by_zero_faults(self):
        exc, _cpu, _p, _s = load_and_run(
            "nisa",
            """
            li a1, 0
            div a0, a0, a1
            ret
            """,
            args=[5],
        )
        assert isinstance(exc, IsaFault)


class TestHISAPrograms:
    def test_simple_add(self):
        exc, _cpu, _p, _s = load_and_run(
            "hisa",
            """
            mov rax, rdi
            add rax, rsi
            ret
            """,
            args=[5, 7],
        )
        assert isinstance(exc, ReturnToRuntime)
        assert exc.retval == 12

    def test_cmp_jcc_loop(self):
        exc, _cpu, _p, _s = load_and_run(
            "hisa",
            """
                li rax, 0
                li rcx, 0
            loop:
                cmp rcx, 10
                jge done
                add rax, rcx
                add rcx, 1
                jmp loop
            done:
                ret
            """,
        )
        assert exc.retval == 45

    def test_call_pushes_return_address_on_stack(self):
        exc, _cpu, _p, _s = load_and_run(
            "hisa",
            """
            main:
                call helper
                add rax, 1
                ret
            helper:
                li rax, 41
                ret
            """,
        )
        assert exc.retval == 42

    def test_push_pop_preserve_callee_saved(self):
        exc, _cpu, _p, _s = load_and_run(
            "hisa",
            """
            main:
                li rbx, 7
                call clobber
                mov rax, rbx
                ret
            clobber:
                push rbx
                li rbx, 999
                pop rbx
                ret
            """,
        )
        assert exc.retval == 7

    def test_recursion_fib(self):
        exc, _cpu, _p, _s = load_and_run(
            "hisa",
            """
            fib:
                cmp rdi, 2
                jl base
                push rdi
                sub rdi, 1
                call fib
                pop rdi
                push rax
                sub rdi, 2
                call fib
                pop rcx
                add rax, rcx
                ret
            base:
                mov rax, rdi
                ret
            """,
            args=[10],
        )
        assert exc.retval == 55

    def test_memory_loads_stores(self):
        exc, _cpu, port, _s = load_and_run(
            "hisa",
            """
            movabs rcx, 0x20000
            st rdi, 0(rcx)
            ld rax, 0(rcx)
            add rax, rax
            ret
            """,
            args=[8],
        )
        assert exc.retval == 16
        assert port.read_u64(0x20000) == 8

    def test_all_conditions(self):
        # (cond, a, b, expected-taken)
        cases = [
            ("je", 5, 5, True), ("je", 5, 6, False),
            ("jne", 5, 6, True), ("jne", 5, 5, False),
            ("jl", 4, 5, True), ("jl", 5, 5, False),
            ("jge", 5, 5, True), ("jge", 4, 5, False),
            ("jle", 5, 5, True), ("jle", 6, 5, False),
            ("jg", 6, 5, True), ("jg", 5, 5, False),
        ]
        for cond, a, b, taken in cases:
            exc, _cpu, _p, _s = load_and_run(
                "hisa",
                f"""
                li rax, 0
                li rdi, {a}
                cmp rdi, {b}
                {cond} hit
                ret
                hit:
                li rax, 1
                ret
                """,
            )
            assert exc.retval == (1 if taken else 0), (cond, a, b)

    def test_signed_compare_with_negative(self):
        exc, _cpu, _p, _s = load_and_run(
            "hisa",
            """
            li rdi, -3
            cmp rdi, 1
            jl neg
            li rax, 0
            ret
            neg:
            li rax, 1
            ret
            """,
        )
        assert exc.retval == 1

    def test_indirect_call_through_register(self):
        # Assemble the target separately at a fixed address; call it
        # through a register (function-pointer style).
        from repro.isa import assemble as _assemble

        port = FlatPort()
        target_code, _r, _l = _assemble("li rax, 77\nret", "hisa")
        port.write(0x3000, target_code)
        main_code, _r, _l = _assemble(
            """
            movabs r10, 0x3000
            call r10
            ret
            """,
            "hisa",
        )
        port.write(CODE_BASE, main_code)
        sim, cpu = make_cpu("hisa", port)
        sim.run_process(cpu.setup_call(CODE_BASE, [], sp=STACK_TOP))
        exc = run_to_exception(sim, cpu)
        assert isinstance(exc, ReturnToRuntime)
        assert exc.retval == 77

    def test_syscall_raises_envcall(self):
        exc, _cpu, _p, _s = load_and_run("hisa", "syscall\nret")
        assert isinstance(exc, EnvCall)
        assert exc.pc_after == CODE_BASE + 1

    def test_hlt(self):
        exc, _cpu, _p, _s = load_and_run("hisa", "hlt")
        assert isinstance(exc, Halted)


class TestCrossIsaFaultTriggers:
    """The NxP-side migration triggers of Section IV-B2."""

    def test_nisa_core_fetching_hisa_code_misaligned(self):
        """HISA code at a byte-aligned (non-8) address -> MisalignedFetch."""
        port = FlatPort()
        hisa_code, _r, _l = assemble("li rax, 1\nret", "hisa")
        port.write(0x1003, hisa_code)  # misaligned, like real x86 text
        sim, cpu = make_cpu("nisa", port)
        cpu.pc = 0x1003
        exc = run_to_exception(sim, cpu)
        assert isinstance(exc, MisalignedFetch)
        assert exc.pc == 0x1003

    def test_nisa_core_fetching_hisa_code_aligned_illegal(self):
        """Even 8-aligned HISA bytes decode as illegal NISA opcodes."""
        port = FlatPort()
        hisa_code, _r, _l = assemble("li rax, 1\nadd rax, 2\nret", "hisa")
        port.write(0x1000, hisa_code)
        sim, cpu = make_cpu("nisa", port)
        cpu.pc = 0x1000
        exc = run_to_exception(sim, cpu)
        assert isinstance(exc, IllegalInstruction)

    def test_hisa_core_fetching_nisa_code_illegal(self):
        port = FlatPort()
        nisa_code, _r, _l = assemble("add a0, a0, a1\nret", "nisa")
        port.write(0x1000, nisa_code)
        sim, cpu = make_cpu("hisa", port)
        cpu.pc = 0x1000
        exc = run_to_exception(sim, cpu)
        assert isinstance(exc, IllegalInstruction)


class TestTiming:
    def test_instruction_costs_accumulate(self):
        exc, _cpu, _p, sim = load_and_run(
            "nisa",
            """
            add a0, a0, a1
            mul a0, a0, a1
            ret
            """,
            args=[2, 3],
        )
        assert exc.retval == 15  # (2+3) * 3
        # add(1) + mul(3) + ret-as-jalr(3) cycles at 1ns/cycle
        assert sim.now == pytest.approx(7.0)

    def test_faster_clock_runs_faster(self):
        src = "add a0, a0, a1\nret"
        port1, port2 = FlatPort(), FlatPort()
        code, _r, _l = assemble(src, "nisa")
        port1.write(CODE_BASE, code)
        port2.write(CODE_BASE, code)
        sim1, cpu1 = make_cpu("nisa", port1, cycle_ns=5.0)
        sim2, cpu2 = make_cpu("nisa", port2, cycle_ns=0.4167, ipc=3)
        for sim, cpu in ((sim1, cpu1), (sim2, cpu2)):
            sim.run_process(cpu.setup_call(CODE_BASE, [1, 2], sp=STACK_TOP))
            run_to_exception(sim, cpu)
        assert sim1.now > 10 * sim2.now

    def test_register_arg_limit_enforced(self):
        port = FlatPort()
        _sim, cpu = make_cpu("hisa", port)
        with pytest.raises(ValueError):
            cpu.set_args(list(range(7)))  # HISA has 6 arg registers


class TestRegisterFile:
    """Compiled superblocks index the register list directly, so
    ``restore`` must keep the list object and a zero zero-register slot."""

    def test_restore_keeps_the_list_object(self):
        regs = RegisterFile(4)
        values = regs._regs
        regs.restore([1, 2, -1, 3])
        assert regs._regs is values
        assert values == [1, 2, MASK64, 3]

    def test_restore_zeroes_the_zero_register_slot(self):
        regs = RegisterFile(4, zero_reg=0)
        regs.restore([7, 1, 2, 3])
        assert regs._regs[0] == 0 == regs.read(0)
        assert [regs.read(i) for i in range(4)] == regs._regs == [0, 1, 2, 3]
        assert regs.snapshot() == [0, 1, 2, 3]
