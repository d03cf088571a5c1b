"""Common ISA infrastructure: operations, instructions, faults, ABIs.

The reproduction defines two toy ISAs that deliberately mirror the
paper's platform asymmetry (x86-64 host, RV64 NxP):

* **HISA** ("host ISA") — variable-length encoding (1–11 bytes),
  16 registers, two-operand CISC style, condition flags, hardware
  CALL/RET push/pop through the stack.
* **NISA** ("NxP ISA") — fixed 8-byte encoding, 32 registers with a
  hardwired zero register, three-operand RISC style, link-register
  calls.

Why toy encodings?  Migration correctness depends on the *differences*
between ISAs (encodings, calling conventions, alignment rules), not on
x86 fidelity.  HISA's variable-length, byte-aligned code even lets us
reproduce the paper's second NxP-side migration trigger: a NISA core
fetching HISA bytes usually takes a *misaligned instruction address*
exception before it can even decode (Section IV-B2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

__all__ = [
    "Op",
    "Sym",
    "Instruction",
    "Relocation",
    "RegisterFile",
    "ABI",
    "IsaFault",
    "MisalignedFetch",
    "IllegalInstruction",
    "sign_extend",
    "to_signed",
    "to_unsigned",
    "MASK64",
]

MASK64 = (1 << 64) - 1


def sign_extend(value: int, bits: int) -> int:
    """Interpret the low ``bits`` of ``value`` as two's complement."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def to_signed(value: int) -> int:
    return sign_extend(value, 64)


def to_unsigned(value: int) -> int:
    return value & MASK64


class Op(enum.IntEnum):
    """Semantic operations shared by both ISAs (each encodes its own subset).

    An ``IntEnum`` so member hashing and equality are C-level int
    operations — Op-keyed dict/set lookups sit on the interpreter's
    per-instruction path.  Mnemonics live in :attr:`mnemonic`.
    """

    # ALU, three-operand on NISA / two-operand on HISA
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()
    SAR = enum.auto()
    SLT = enum.auto()
    SLTU = enum.auto()
    SEQ = enum.auto()
    SNE = enum.auto()
    ADDI = enum.auto()
    # data movement
    LI = enum.auto()          # rd = sign-extended imm32
    LIH = enum.auto()        # rd = (rd & 0xFFFFFFFF) | imm32 << 32
    MOV = enum.auto()
    # memory
    LD = enum.auto()          # 8-byte load
    LW = enum.auto()          # 4-byte load, zero-extended
    LBU = enum.auto()        # 1-byte load, zero-extended
    ST = enum.auto()
    SW = enum.auto()
    SB = enum.auto()
    # control flow
    BEQ = enum.auto()
    BNE = enum.auto()
    BLT = enum.auto()
    BGE = enum.auto()
    J = enum.auto()
    JAL = enum.auto()
    JALR = enum.auto()
    CALL = enum.auto()      # HISA: push return address; NISA assembler alias of JAL
    CALLR = enum.auto()    # indirect call through a register
    RET = enum.auto()
    PUSH = enum.auto()      # HISA only
    POP = enum.auto()        # HISA only
    CMP = enum.auto()        # HISA only: set flags
    JCC = enum.auto()        # HISA only: conditional jump on flags (cond in imm2)
    # system
    ECALL = enum.auto()
    NOP = enum.auto()
    HALT = enum.auto()

    @property
    def mnemonic(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Sym:
    """A symbolic operand resolved at link time."""

    name: str
    addend: int = 0

    def __repr__(self) -> str:
        if self.addend:
            return f"Sym({self.name}+{self.addend:#x})"
        return f"Sym({self.name})"


Imm = Union[int, Sym]


@dataclass
class Instruction:
    """One assembly-level instruction (pre-encoding).

    ``cond`` is only used by HISA's JCC family ("eq", "ne", "lt", "ge",
    "le", "gt").
    """

    op: Op
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[Imm] = None
    cond: Optional[str] = None
    label: Optional[str] = None  # attached label (definition site)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.mnemonic]
        for name in ("rd", "rs1", "rs2"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        if self.imm is not None:
            parts.append(f"imm={self.imm}")
        if self.cond:
            parts.append(f"cond={self.cond}")
        return f"<{' '.join(parts)}>"


@dataclass(frozen=True)
class Relocation:
    """A patch the linker must apply inside encoded code.

    ``kind`` values:

    * ``abs64``   — write the symbol's absolute 64-bit address
    * ``abs32lo`` — low 32 bits of the absolute address
    * ``abs32hi`` — high 32 bits of the absolute address
    * ``rel32``   — 32-bit PC-relative displacement (from ``pc_base``
      bytes *after* the start of the instruction)
    """

    offset: int          # byte offset of the patch field within the section
    symbol: Sym
    kind: str
    pc_base: int = 0     # offset of the *next* instruction, for rel32


class IsaFault(Exception):
    """Base class for architectural faults raised during execution."""

    def __init__(self, pc: int, message: str):
        self.pc = pc
        super().__init__(message)


class MisalignedFetch(IsaFault):
    """NISA fetched from a non-8-byte-aligned PC (e.g. HISA code)."""

    def __init__(self, pc: int):
        super().__init__(pc, f"misaligned instruction fetch at {pc:#x}")


class IllegalInstruction(IsaFault):
    """Undecodable opcode for the executing ISA."""

    def __init__(self, pc: int, opcode: int):
        self.opcode = opcode
        super().__init__(pc, f"illegal opcode {opcode:#x} at {pc:#x}")


class RegisterFile:
    """A bank of 64-bit registers; index 0 may be hardwired to zero."""

    def __init__(self, count: int, zero_reg: Optional[int] = None):
        self.count = count
        self.zero_reg = zero_reg
        self._regs = [0] * count

    def read(self, idx: int) -> int:
        if not 0 <= idx < self.count:
            raise IndexError(f"register x{idx} out of range")
        if idx == self.zero_reg:
            return 0
        return self._regs[idx]

    def write(self, idx: int, value: int) -> None:
        if not 0 <= idx < self.count:
            raise IndexError(f"register x{idx} out of range")
        if idx == self.zero_reg:
            return
        self._regs[idx] = value & MASK64

    def snapshot(self) -> List[int]:
        return list(self._regs)

    def restore(self, values: Sequence[int]) -> None:
        """Load a :meth:`snapshot`.  The list is assigned in place, since
        compiled superblocks index it directly (repro.isa.jit), and the
        zero register's slot stays 0, so a direct read of it agrees with
        :meth:`read`."""
        if len(values) != self.count:
            raise ValueError("register snapshot size mismatch")
        regs = self._regs
        regs[:] = [v & MASK64 for v in values]
        if self.zero_reg is not None:
            regs[self.zero_reg] = 0


@dataclass(frozen=True)
class ABI:
    """Calling convention of one ISA."""

    name: str
    reg_count: int
    arg_regs: Sequence[int]     # argument registers, in order
    ret_reg: int                # return-value register
    sp_reg: int                 # stack pointer
    link_reg: Optional[int]     # link register (None: stack-based return)
    zero_reg: Optional[int]     # hardwired zero (None: no zero register)
    stack_align: int = 16
    code_align: int = 1         # instruction alignment requirement

    def max_reg_args(self) -> int:
        return len(self.arg_regs)
