//===- hierarchy/PrimOp.h - Builtin primitive operations -------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builtin methods carry a PrimOp instead of a Mica body.  The runtime
/// core implements the semantics; keeping only an enum (and the Int
/// arithmetic the constant folder must share) here lets the hierarchy
/// layer stay independent of the runtime layer.
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_HIERARCHY_PRIMOP_H
#define SELSPEC_HIERARCHY_PRIMOP_H

#include <cstdint>

namespace selspec {

enum class PrimOp : uint8_t {
  None, ///< Not a builtin (user method with a Mica body).

  // Integer arithmetic and comparison.
  IntAdd,
  IntSub,
  IntMul,
  IntDiv,
  IntMod,
  IntNeg,
  IntLess,
  IntLessEq,
  IntGreater,
  IntGreaterEq,
  IntEq,
  IntNe,

  // Boolean.
  BoolNot,
  BoolEq,

  // Generic identity comparison (the default == on Any).
  AnyEq,
  AnyNe,

  // Strings.
  StrConcat,
  StrEq,
  StrLess,
  StrSize,

  // Arrays (fixed-size vectors).
  ArrayNew,  ///< array(n) — n nil elements.
  ArrayAt,   ///< at(a, i)
  ArrayPut,  ///< atPut(a, i, v)
  ArraySize, ///< size(a)

  // Miscellaneous.
  Print,      ///< print(x) — writes to the interpreter's output stream.
  ClassName,  ///< className(x) — name of x's class, as a string.
  Abort,      ///< abort(msg) — halts execution with a runtime error.
};

/// Stable name for reports and tests.
const char *primOpName(PrimOp Op);

/// The value of an Int arithmetic primitive (IntAdd, IntSub, IntMul,
/// IntDiv, IntMod, IntNeg; \p B is ignored for IntNeg).  Mica Int is
/// 64-bit wrapping two's complement: every result is taken modulo 2^64,
/// so INT64_MIN / -1 == INT64_MIN and INT64_MIN % -1 == 0.  Division by
/// zero is the caller's trap (\p B != 0 for IntDiv and IntMod).  The
/// runtime's primitives and the optimizer's constant folder both compute
/// through this one definition, so folding never changes a result.
constexpr int64_t intArith(PrimOp Op, int64_t A, int64_t B) {
  const uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
  switch (Op) {
  case PrimOp::IntAdd:
    return static_cast<int64_t>(UA + UB);
  case PrimOp::IntSub:
    return static_cast<int64_t>(UA - UB);
  case PrimOp::IntMul:
    return static_cast<int64_t>(UA * UB);
  case PrimOp::IntDiv:
    return B == -1 ? static_cast<int64_t>(0 - UA) : A / B;
  case PrimOp::IntMod:
    return B == -1 ? 0 : A % B;
  case PrimOp::IntNeg:
    return static_cast<int64_t>(0 - UA);
  default:
    return 0;
  }
}

} // namespace selspec

#endif // SELSPEC_HIERARCHY_PRIMOP_H
