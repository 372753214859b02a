//===- opt/CompiledProgram.h - Compiled method versions --------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of compilation: one CompiledMethod per (method, spec tuple)
/// pair in the plan, each holding its optimized body and code-size
/// estimate, plus the runtime version-selection rule (most-specific
/// matching tuple).  Figure 6's "routines compiled" counts these versions;
/// the Invoked bits support the dynamic-compilation variant of Figure 6.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_OPT_COMPILEDPROGRAM_H
#define SELSPEC_OPT_COMPILEDPROGRAM_H

#include "lang/Ast.h"
#include "specialize/SpecTuple.h"

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

namespace selspec {

/// One compiled version of a source method.
struct CompiledMethod {
  /// Dense index in CompiledProgram::versions().
  uint32_t Index = 0;
  MethodId Source;
  /// The class-set tuple this version is specialized for.  For builtins,
  /// the cones of the specializers.
  SpecTuple Tuple;
  /// Optimized body (null for builtins).
  ExprPtr Body;
  /// Frame layout of Body, computed by the SlotResolver after all
  /// optimizer rewrites; the interpreter sizes this version's activation
  /// frames from it.  Unresolved for builtins.
  FrameLayout Layout;
  /// Code-space estimate (optimized AST nodes + dispatch stubs).
  unsigned CodeSize = 0;
};

class CompiledProgram {
public:
  CompiledProgram(const Program &P, Config Configuration, bool UseCHA)
      : P(P), Configuration(Configuration), UseCHA(UseCHA) {}

  const Program &program() const { return P; }
  Config configuration() const { return Configuration; }
  bool usesCHA() const { return UseCHA; }

  /// Appends a version; returns its index.
  uint32_t addVersion(CompiledMethod CM);

  const std::vector<CompiledMethod> &versions() const { return Versions; }
  CompiledMethod &version(uint32_t Index) { return Versions[Index]; }
  const CompiledMethod &version(uint32_t Index) const {
    return Versions[Index];
  }

  /// Version indexes of a source method.
  const std::vector<uint32_t> &versionsOf(MethodId M) const {
    return ByMethod[M.value()];
  }

  /// Runtime version selection: the most specific version of \p M whose
  /// tuple contains \p ArgClasses.  Returns -1 when none matches (a
  /// compilation bug if dispatch really chose \p M).
  int selectVersion(MethodId M, const std::vector<ClassId> &ArgClasses) const;

  /// Marks version \p Index invoked (dynamic-compilation counting for
  /// Figure 6).  Const and thread-safe by design: a snapshot is shared as
  /// `const CompiledProgram &` across serving threads, and the invoked
  /// bits are the one piece of instrumentation the interpreters still
  /// write — monotonic relaxed stores on dedicated atomics, so concurrent
  /// marking is race-free and never perturbs RunStats.  The store happens
  /// only while the bit is clear: after a version's first call, marking
  /// it is a load of a cache line every serving thread keeps shared.
  void markInvoked(uint32_t Index) const {
    std::atomic<uint8_t> &Bit = InvokedBits[Index];
    if (!Bit.load(std::memory_order_relaxed))
      Bit.store(1, std::memory_order_relaxed);
  }
  bool invoked(uint32_t Index) const {
    return InvokedBits[Index].load(std::memory_order_relaxed) != 0;
  }

  /// Figure 6 statistics: compiled routine counts over *user* methods.
  unsigned numCompiledRoutines() const;
  unsigned numInvokedRoutines() const;
  uint64_t totalCodeSize() const;
  void resetInvoked();

private:
  const Program &P;
  Config Configuration;
  bool UseCHA;
  std::vector<CompiledMethod> Versions;
  std::vector<std::vector<uint32_t>> ByMethod;
  /// One invoked bit per version.  A deque because atomics are immovable
  /// and addVersion grows the set; deque growth never relocates elements,
  /// so raced markInvoked pointers stay valid.  `mutable` + atomic is the
  /// documented exception to snapshot immutability (see markInvoked).
  mutable std::deque<std::atomic<uint8_t>> InvokedBits;
};

} // namespace selspec

#endif // SELSPEC_OPT_COMPILEDPROGRAM_H
