//===- lang/Symbol.h - Interned identifiers --------------------*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Identifiers (variable, class, generic-function and slot names) are
/// interned into small integer Symbols so that the interpreter and
/// analyses compare names in O(1).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_LANG_SYMBOL_H
#define SELSPEC_LANG_SYMBOL_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace selspec {

/// An interned identifier.  Value 0 is reserved as "invalid".
class Symbol {
public:
  Symbol() = default;
  explicit Symbol(uint32_t V) : Val(V) {}

  uint32_t value() const { return Val; }
  bool isValid() const { return Val != 0; }

  friend bool operator==(Symbol A, Symbol B) { return A.Val == B.Val; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Val != B.Val; }
  friend bool operator<(Symbol A, Symbol B) { return A.Val < B.Val; }

private:
  uint32_t Val = 0;
};

/// Interns strings to Symbols.  One table is shared by a whole Program.
///
/// The index is open-addressed over the symbol values themselves and each
/// symbol keeps its hash, so a lookup hashes its string_view once (also
/// when it inserts, and never again when the index grows), and a new name
/// allocates nothing beyond its own text, and nothing when that is short.
class SymbolTable {
public:
  SymbolTable() : Index(64, 0) {
    Names.emplace_back(); // slot 0 = invalid
    Hashes.push_back(0);
  }

  Symbol intern(std::string_view Name) {
    const size_t H = std::hash<std::string_view>()(Name);
    const size_t Slot = findSlot(Name, H);
    if (Index[Slot] != 0)
      return Symbol(Index[Slot]);
    uint32_t Id = static_cast<uint32_t>(Names.size());
    Names.emplace_back(Name);
    Hashes.push_back(H);
    Index[Slot] = Id;
    if (2 * Names.size() > Index.size())
      grow();
    return Symbol(Id);
  }

  /// Returns the existing symbol for \p Name, or an invalid Symbol.
  Symbol find(std::string_view Name) const {
    return Symbol(Index[findSlot(Name, std::hash<std::string_view>()(Name))]);
  }

  const std::string &name(Symbol S) const {
    assert(S.value() < Names.size() && "unknown symbol");
    return Names[S.value()];
  }

  /// Generates a fresh symbol that cannot collide with source identifiers
  /// (used by the inliner for renamed locals).
  Symbol gensym(const std::string &Hint) {
    return intern("$" + Hint + "." + std::to_string(NextGen++));
  }

private:
  /// The index slot that holds \p Name, or else the empty slot where it
  /// belongs.  The index is at most half full, so an empty slot exists.
  size_t findSlot(std::string_view Name, size_t H) const {
    const size_t Mask = Index.size() - 1;
    for (size_t Slot = H & Mask;; Slot = (Slot + 1) & Mask) {
      uint32_t Id = Index[Slot];
      if (Id == 0 || (Hashes[Id] == H && Names[Id] == Name))
        return Slot;
    }
  }

  /// Doubles the index and places every symbol again by its kept hash.
  void grow() {
    Index.assign(Index.size() * 2, 0);
    const size_t Mask = Index.size() - 1;
    for (uint32_t Id = 1; Id != Names.size(); ++Id) {
      size_t Slot = Hashes[Id] & Mask;
      while (Index[Slot] != 0)
        Slot = (Slot + 1) & Mask;
      Index[Slot] = Id;
    }
  }

  std::vector<std::string> Names;
  /// Hashes[S] = the hash of Names[S].
  std::vector<size_t> Hashes;
  /// Open-addressed, power-of-two sized; 0 marks an empty slot.
  std::vector<uint32_t> Index;
  uint64_t NextGen = 0;
};

} // namespace selspec

namespace std {
template <> struct hash<selspec::Symbol> {
  size_t operator()(selspec::Symbol S) const {
    return std::hash<uint32_t>()(S.value());
  }
};
} // namespace std

#endif // SELSPEC_LANG_SYMBOL_H
