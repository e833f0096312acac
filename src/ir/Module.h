//===- ir/Module.h - Top-level program container ---------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module owns classes, functions, globals and interned method/native names,
/// and assigns the dense instruction / allocation-site numbering the
/// profiler keys its flat tables on. After construction call finalize()
/// exactly once before execution.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_MODULE_H
#define LUD_IR_MODULE_H

#include "ir/ClassDecl.h"
#include "ir/Function.h"

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lud {

class OutStream;

/// Pseudo field slots used when reporting array locations: all elements of
/// an array are one abstract location (the paper's O.ELM), and the length
/// behaves like an immutable field.
inline constexpr FieldSlot kElemSlot = 0xFFFFFFFD;
inline constexpr FieldSlot kLenSlot = 0xFFFFFFFE;

class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  //===--------------------------------------------------------------------===
  // Construction API (used by IRBuilder and the parser).
  //===--------------------------------------------------------------------===

  /// Creates a class; \p Super must already exist when not kNoClass.
  ClassDecl *addClass(std::string Name, ClassId Super = kNoClass);

  /// Creates a function. Instance methods pass their owner class; the
  /// receiver is parameter 0.
  Function *addFunction(std::string Name, unsigned NumParams,
                        unsigned NumRegs, ClassId Owner = kNoClass);

  /// Declares a module-level static variable.
  GlobalId addGlobal(std::string Name, Type Ty);

  /// Interns a virtual method name.
  MethodNameId internMethodName(std::string_view Name);

  /// Interns a native function name (bound to an implementation by the
  /// runtime's NativeRegistry at execution time).
  NativeId internNativeName(std::string_view Name);

  /// Computes class layouts and vtables, numbers instructions and
  /// allocation sites, and freezes the module. Must be called exactly once.
  void finalize();

  //===--------------------------------------------------------------------===
  // Queries.
  //===--------------------------------------------------------------------===

  bool isFinalized() const { return Finalized; }

  const std::vector<std::unique_ptr<ClassDecl>> &classes() const {
    return Classes;
  }
  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Functions;
  }
  const std::vector<GlobalDecl> &globals() const { return Globals; }
  const std::vector<std::string> &methodNames() const { return MethodNames; }
  const std::vector<std::string> &nativeNames() const { return NativeNames; }

  ClassDecl *getClass(ClassId Id) const {
    assert(Id < Classes.size() && "class id out of range");
    return Classes[Id].get();
  }
  Function *getFunction(FuncId Id) const {
    assert(Id < Functions.size() && "function id out of range");
    return Functions[Id].get();
  }

  /// Returns the class/function/global with the given name, or the sentinel.
  ClassId findClass(std::string_view Name) const;
  FuncId findFunction(std::string_view Name) const;
  GlobalId findGlobal(std::string_view Name) const;
  MethodNameId findMethodName(std::string_view Name) const;

  /// Layout slot of the first own field of \p Class (computed lazily; the
  /// first query freezes the superclass chain's field lists).
  FieldSlot classFirstSlot(ClassId Class) const;

  /// Resolves field \p Name against the layout of \p Class (searching
  /// superclasses). Returns false if no such field.
  bool resolveField(ClassId Class, std::string_view Name,
                    FieldSlot &SlotOut) const;

  /// Resolves a field name against all classes; succeeds only if the name
  /// is unambiguous module-wide (used by the parser for unqualified names).
  bool resolveFieldUnqualified(std::string_view Name, ClassId &ClassOut,
                               FieldSlot &SlotOut) const;

  /// Printable name of the field at \p Slot in instances of \p Class.
  /// Understands the kElemSlot/kLenSlot pseudo slots.
  std::string fieldName(ClassId Class, FieldSlot Slot) const;

  /// Virtual dispatch: implementation of \p Method for exact class \p C.
  FuncId lookupMethod(ClassId C, MethodNameId Method) const;

  //===--------------------------------------------------------------------===
  // Dense numbering (valid after finalize()).
  //===--------------------------------------------------------------------===

  uint32_t getNumInstrs() const { return InstrTable.size(); }
  uint32_t getNumAllocSites() const { return AllocSiteTable.size(); }

  Instruction *getInstr(InstrId Id) const {
    assert(Id < InstrTable.size() && "instruction id out of range");
    return InstrTable[Id];
  }
  /// Function containing instruction \p Id.
  Function *getInstrFunction(InstrId Id) const {
    assert(Id < InstrOwner.size() && "instruction id out of range");
    return Functions[InstrOwner[Id]].get();
  }
  /// The allocation instruction for site \p Site (Alloc or AllocArray).
  Instruction *getAllocSite(AllocSiteId Site) const {
    assert(Site < AllocSiteTable.size() && "alloc site out of range");
    return AllocSiteTable[Site];
  }
  /// Human-readable description of an allocation site, e.g.
  /// "new List @ chart.buildDataset".
  std::string describeAllocSite(AllocSiteId Site) const;

  /// Entry point (function named "main" unless overridden).
  FuncId getEntry() const;
  void setEntry(FuncId F) { Entry = F; }

private:
  /// Hashes names as string_views, so lookups take a std::string_view
  /// without building a std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };
  template <typename T>
  using NameMap = std::unordered_map<std::string, T, NameHash, std::equal_to<>>;

  bool Finalized = false;
  std::vector<std::unique_ptr<ClassDecl>> Classes;
  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<GlobalDecl> Globals;
  std::vector<std::string> MethodNames;
  std::vector<std::string> NativeNames;
  NameMap<ClassId> ClassByName;
  NameMap<FuncId> FuncByName;
  NameMap<GlobalId> GlobalByName;
  NameMap<MethodNameId> MethodNameIds;
  NameMap<NativeId> NativeNameIds;

  std::vector<Instruction *> InstrTable;
  std::vector<FuncId> InstrOwner;
  std::vector<Instruction *> AllocSiteTable;

  FuncId Entry = kNoFunc;
};

} // namespace lud

#endif // LUD_IR_MODULE_H
