//===- runtime/Dispatcher.cpp - Multi-method dispatch ----------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/Dispatcher.h"

#include "support/Metrics.h"

using namespace selspec;

namespace {

metrics::Counter CtrLookups("dispatcher.lookups");
metrics::Counter CtrFullLookups("dispatcher.full_lookups");

} // namespace

Dispatcher::~Dispatcher() {
  CtrLookups.add(S.Lookups);
  CtrFullLookups.add(S.FullLookups);
}
