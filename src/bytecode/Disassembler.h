//===- bytecode/Disassembler.h - Bytecode listing --------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable listing of a BcModule (`micac --dump-bytecode`): per
/// function, the augmented frame layout, each instruction's opcode and
/// operands under the head of every charge region starting there (its
/// node count and kind mix), and the side-table annotations — send-site
/// binding kinds and inline-cache slots, slot-cache slots, inlined
/// regions.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_BYTECODE_DISASSEMBLER_H
#define SELSPEC_BYTECODE_DISASSEMBLER_H

#include "bytecode/Bytecode.h"

#include <iosfwd>

namespace selspec {

class Program;

/// Prints every function of \p Mod to \p OS.  \p P resolves method,
/// generic and symbol names.
void disassemble(const BcModule &Mod, const Program &P, std::ostream &OS);

/// Prints one function.
void disassemble(const BcFunction &Fn, const Program &P, std::ostream &OS);

} // namespace selspec

#endif // SELSPEC_BYTECODE_DISASSEMBLER_H
