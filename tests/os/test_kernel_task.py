"""Direct kernel and task_struct unit tests."""

import pytest

from repro import FlickMachine
from repro.memory.paging import PageFault
from repro.os.kernel import SYS_EXIT, SYS_PRINT, ProcessCrash, _ThreadExit
from repro.os.task import CpuContext, Task, TaskState


@pytest.fixture
def machine_with_process():
    machine = FlickMachine()
    exe = machine.compile(
        """
        @nxp func dev() { return 1; }
        func main() { return 0; }
        """
    )
    process = machine.load(exe)
    task = Task(process, name="t")
    machine.kernel.register_task(task)
    return machine, exe, process, task


class TestFaultClassification:
    def test_fetch_of_other_isa_text_is_migration(self, machine_with_process):
        machine, exe, _process, task = machine_with_process
        fault = PageFault(exe.symbol("dev"), PageFault.NX_VIOLATION, is_exec=True)
        assert machine.kernel.classify_exec_fault(task, fault, running_on="hisa") == "nisa"

    def test_fetch_of_same_isa_text_is_crash(self, machine_with_process):
        machine, exe, _process, task = machine_with_process
        fault = PageFault(exe.symbol("main"), PageFault.NX_VIOLATION, is_exec=True)
        with pytest.raises(ProcessCrash):
            machine.kernel.classify_exec_fault(task, fault, running_on="hisa")

    def test_fetch_of_garbage_is_crash(self, machine_with_process):
        machine, _exe, _process, task = machine_with_process
        fault = PageFault(0xDEAD000, PageFault.NX_VIOLATION, is_exec=True)
        with pytest.raises(ProcessCrash):
            machine.kernel.classify_exec_fault(task, fault, running_on="hisa")

    def test_reverse_direction(self, machine_with_process):
        machine, exe, _process, task = machine_with_process
        fault = PageFault(exe.symbol("main"), PageFault.NX_VIOLATION, is_exec=True)
        assert machine.kernel.classify_exec_fault(task, fault, running_on="nisa") == "hisa"


class TestSyscalls:
    def test_print_appends_signed_output(self, machine_with_process):
        machine, _exe, process, task = machine_with_process
        machine.kernel.service_syscall(task, SYS_PRINT, 42)
        machine.kernel.service_syscall(task, SYS_PRINT, (-3) & ((1 << 64) - 1))
        assert process.output == [42, -3]

    def test_exit_raises_thread_exit(self, machine_with_process):
        machine, _exe, _process, task = machine_with_process
        with pytest.raises(_ThreadExit) as excinfo:
            machine.kernel.service_syscall(task, SYS_EXIT, 9)
        assert excinfo.value.code == 9

    def test_unknown_syscall_crashes(self, machine_with_process):
        machine, _exe, _process, task = machine_with_process
        with pytest.raises(ProcessCrash):
            machine.kernel.service_syscall(task, 77, 0)


class TestTaskStruct:
    def test_new_task_flick_fields(self, machine_with_process):
        _machine, _exe, _process, task = machine_with_process
        assert task.state is TaskState.READY
        assert task.nxp_stack_base is None  # never migrated yet
        assert task.nxp_sp is None
        assert task.nxp_context_stack == []

    def test_unique_ids(self, machine_with_process):
        _machine, _exe, process, task = machine_with_process
        other = Task(process)
        assert other.tid != task.tid

    def test_cpu_context_roundtrip(self):
        ctx = CpuContext(regs=list(range(16)), pc=0x400000, zf=True)
        assert ctx.regs[5] == 5
        assert ctx.pc == 0x400000
        assert ctx.zf is True

    def test_process_registry(self, machine_with_process):
        machine, _exe, process, task = machine_with_process
        assert machine.kernel.process_by_pid(process.pid) is process
        assert machine.kernel.task_by_pid(task.pid) is task
