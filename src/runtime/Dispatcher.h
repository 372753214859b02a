//===- runtime/Dispatcher.h - Multi-method dispatch ------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AST tier's method lookup: one read of the generic's compressed
/// dispatch table (DispatchTable.h, §3.5), counted.  The tables are the
/// interpreter's own or a snapshot's, shared by every thread running it.
///
/// The AST tier keeps no dispatch cache of its own; the bytecode tier's
/// per-site inline caches, which miss straight into the same tables, are
/// the only dispatch cache in the system.  The bytecode tier never calls
/// lookup(), so its `dispatcher.*` counts stay 0.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_RUNTIME_DISPATCHER_H
#define SELSPEC_RUNTIME_DISPATCHER_H

#include "runtime/DispatchTable.h"

#include <memory>
#include <vector>

namespace selspec {

/// An interpreter's dispatch tables (owned or shared) plus a lookup count.
class Dispatcher {
public:
  /// Owns tables carrying \p CP's versions.
  explicit Dispatcher(const CompiledProgram &CP)
      : Owned(std::make_unique<DispatchTables>(CP)), Tables(Owned.get()) {}

  /// Reads shared immutable \p Tables (a snapshot's), which must outlive
  /// this Dispatcher.
  explicit Dispatcher(const DispatchTables &Tables) : Tables(&Tables) {}

  struct Stats {
    uint64_t Lookups = 0;
    /// Every lookup is a table read, so this equals Lookups.
    uint64_t FullLookups = 0;
    /// Always 0: no PIC or memo exists.  Kept until the benchmark change
    /// that drops `runtime.{pic,memo}_hits_per_job` (ROADMAP).
    uint64_t PicHits = 0;
    uint64_t MemoHits = 0;
  };

  /// Publishes the accumulated Stats onto the process-wide metrics
  /// registry (`dispatcher.*` counters).
  ~Dispatcher();

  /// The method generic \p G invokes on \p ArgClasses; an invalid id for
  /// "message not understood"/"ambiguous".
  MethodId lookup(GenericId G, const std::vector<ClassId> &ArgClasses) {
    ++S.Lookups;
    ++S.FullLookups;
    return Tables->dispatch(G, ArgClasses);
  }

  const Stats &stats() const { return S; }

  const DispatchTables &tables() const { return *Tables; }

private:
  /// Set only by the table-owning constructor.
  std::unique_ptr<DispatchTables> Owned;
  /// Never null; points at Owned or at a caller-shared snapshot's tables.
  const DispatchTables *Tables;
  Stats S;
};

} // namespace selspec

#endif // SELSPEC_RUNTIME_DISPATCHER_H
