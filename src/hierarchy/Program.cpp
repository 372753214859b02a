//===- hierarchy/Program.cpp - Whole-program container ---------------------===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//

#include "hierarchy/Program.h"

#include "lang/Parser.h"
#include "lang/Resolver.h"

#include <sstream>

using namespace selspec;

bool Program::addModule(Module M, Diagnostics &Diags) {
  assert(BuiltinsAdded && "call addBuiltins() before addModule()");
  assert(!Resolved && "cannot add modules after resolve()");

  // Pass 1: declare all class names so that forward references and mutual
  // references within the module work.  Parents must still form a DAG:
  // a class may only name already-declared classes (including ones from
  // this pass when they appear earlier in the file) as parents.  One
  // parent list serves every class: addClass copies it into its pool.
  std::vector<ClassId> Parents;
  for (ClassDecl &CD : M.Classes) {
    if (Classes.lookup(CD.Name).isValid()) {
      Diags.error(CD.Loc,
                  "duplicate class '" + Syms.name(CD.Name) + "'");
      continue;
    }
    Parents.clear();
    bool Ok = true;
    for (Symbol P : CD.Parents) {
      ClassId PId = Classes.lookup(P);
      if (!PId.isValid()) {
        Diags.error(CD.Loc, "unknown parent class '" + Syms.name(P) +
                                "' of '" + Syms.name(CD.Name) + "'");
        Ok = false;
        continue;
      }
      if (Classes.isSealed(PId)) {
        Diags.error(CD.Loc, "class '" + Syms.name(P) +
                                "' is sealed and cannot be subclassed");
        Ok = false;
        continue;
      }
      Parents.push_back(PId);
    }
    if (Ok)
      Classes.addClass(CD.Name, Parents, CD.Slots);
  }

  // Pass 2: register methods (bodies resolved later).
  for (MethodDecl &MD : M.Methods) {
    std::vector<Symbol> ParamNames;
    std::vector<ClassId> Specializers;
    for (ParamDecl &P : MD.Params) {
      ParamNames.push_back(P.Name);
      if (P.SpecializerName.isValid()) {
        ClassId C = Classes.lookup(P.SpecializerName);
        if (!C.isValid()) {
          Diags.error(P.Loc, "unknown specializer class '" +
                                 Syms.name(P.SpecializerName) + "'");
          C = Classes.root();
        }
        Specializers.push_back(C);
      } else {
        Specializers.push_back(Classes.root());
      }
    }
    GenericId G = getOrCreateGeneric(
        MD.Name, static_cast<unsigned>(MD.Params.size()));
    addMethod(G, std::move(ParamNames), std::move(Specializers),
              std::move(MD.Body), PrimOp::None, MD.Loc);
  }
  return !Diags.hasErrors();
}

bool Program::addSource(const std::string &Source, Diagnostics &Diags) {
  Module M;
  if (!Parser::parseSource(Source, Syms, Diags, M))
    return false;
  return addModule(std::move(M), Diags);
}

GenericId Program::getOrCreateGeneric(Symbol Name, unsigned Arity) {
  uint64_t Key = genericKey(Name, Arity);
  auto It = GenericMap.find(Key);
  if (It != GenericMap.end())
    return It->second;
  GenericId Id(static_cast<uint32_t>(Generics.size()));
  GenericInfo Info;
  Info.Id = Id;
  Info.Name = Name;
  Info.Arity = Arity;
  Generics.push_back(std::move(Info));
  GenericMap.emplace(Key, Id);
  return Id;
}

MethodId Program::addMethod(GenericId G, std::vector<Symbol> ParamNames,
                            std::vector<ClassId> Specializers, ExprPtr Body,
                            PrimOp Prim, SourceLoc Loc) {
  assert(ParamNames.size() == Specializers.size() &&
         "param/specializer arity mismatch");
  assert(Specializers.size() == generic(G).Arity && "arity mismatch");
  MethodId Id(static_cast<uint32_t>(Methods.size()));
  MethodInfo Info;
  Info.Id = Id;
  Info.Generic = G;
  Info.ParamNames = std::move(ParamNames);
  Info.Specializers = std::move(Specializers);
  Info.Body = std::move(Body);
  Info.Prim = Prim;
  Info.Loc = Loc;
  Methods.push_back(std::move(Info));
  Generics[G.value()].Methods.push_back(Id);
  return Id;
}

bool Program::resolve(Diagnostics &Diags) {
  assert(!Resolved && "resolve() must run exactly once");
  Classes.finalize();

  Resolver R(*this, Diags);
  for (MethodInfo &M : Methods) {
    if (M.isBuiltin())
      continue;
    if (!M.Body) {
      Diags.error(M.Loc, "method '" + methodLabel(M.Id) + "' has no body");
      continue;
    }
    R.resolveMethod(M);
  }
  if (Diags.hasErrors())
    return false;
  Resolved = true;
  return true;
}

GenericId Program::lookupGeneric(Symbol Name, unsigned Arity) const {
  auto It = GenericMap.find(genericKey(Name, Arity));
  return It == GenericMap.end() ? GenericId() : It->second;
}

unsigned Program::numUserMethods() const {
  unsigned N = 0;
  for (const MethodInfo &M : Methods)
    if (!M.isBuiltin())
      ++N;
  return N;
}

bool Program::isApplicable(const MethodInfo &M,
                           const std::vector<ClassId> &ArgClasses) const {
  assert(ArgClasses.size() == M.arity() && "arity mismatch");
  for (unsigned I = 0, E = M.arity(); I != E; ++I)
    if (!Classes.isSubclassOf(ArgClasses[I], M.Specializers[I]))
      return false;
  return true;
}

bool Program::atLeastAsSpecific(MethodId A, MethodId B) const {
  const MethodInfo &MA = method(A);
  const MethodInfo &MB = method(B);
  assert(MA.Generic == MB.Generic && "specificity across generics");
  for (unsigned I = 0, E = MA.arity(); I != E; ++I)
    if (!Classes.isSubclassOf(MA.Specializers[I], MB.Specializers[I]))
      return false;
  return true;
}

MethodId Program::dispatch(GenericId G,
                           const std::vector<ClassId> &ArgClasses,
                           bool *AmbiguousOut) const {
  const GenericInfo &Info = generic(G);
  if (AmbiguousOut)
    *AmbiguousOut = false;
  MethodId Best;
  bool Ambiguous = false;
  for (MethodId M : Info.Methods) {
    if (!isApplicable(method(M), ArgClasses))
      continue;
    if (!Best.isValid()) {
      Best = M;
      continue;
    }
    if (atLeastAsSpecific(M, Best)) {
      Best = M;
      Ambiguous = false;
    } else if (!atLeastAsSpecific(Best, M)) {
      Ambiguous = true;
    }
  }
  if (!Best.isValid() || Ambiguous) {
    if (AmbiguousOut)
      *AmbiguousOut = Ambiguous;
    return MethodId();
  }
  // With multiple inheritance a later method may be incomparable to Best
  // yet applicable; verify Best dominates all applicable methods.
  for (MethodId M : Info.Methods)
    if (isApplicable(method(M), ArgClasses) && !atLeastAsSpecific(Best, M)) {
      if (AmbiguousOut)
        *AmbiguousOut = true;
      return MethodId();
    }
  return Best;
}

std::string Program::methodLabel(MethodId M) const {
  const MethodInfo &Info = method(M);
  std::ostringstream OS;
  OS << Syms.name(generic(Info.Generic).Name) << '(';
  for (unsigned I = 0, E = Info.arity(); I != E; ++I) {
    if (I)
      OS << ',';
    OS << Syms.name(Classes.info(Info.Specializers[I]).Name);
  }
  OS << ')';
  return OS.str();
}

std::string Program::genericLabel(GenericId G) const {
  const GenericInfo &Info = generic(G);
  return Syms.name(Info.Name) + "/" + std::to_string(Info.Arity);
}
