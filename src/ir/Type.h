//===- ir/Type.h - Simple value and field types ----------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small dynamic type universe of the interpreted language: 64-bit
/// integers, doubles, object references, and one-dimensional arrays of each.
/// Registers are dynamically typed; Type only annotates class fields and
/// globals for documentation, reporting and verification.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_TYPE_H
#define LUD_IR_TYPE_H

#include "ir/Ids.h"

namespace lud {

enum class TypeKind : uint8_t {
  Int,
  Float,
  Ref,
  IntArray,
  FloatArray,
  RefArray,
};

/// A field/global type: a kind plus, for Ref and RefArray, the class of the
/// referenced object (kNoClass when unconstrained).
struct Type {
  TypeKind Kind = TypeKind::Int;
  ClassId Class = kNoClass;

  static Type makeInt() { return {TypeKind::Int, kNoClass}; }
  static Type makeFloat() { return {TypeKind::Float, kNoClass}; }
  static Type makeRef(ClassId C = kNoClass) { return {TypeKind::Ref, C}; }
  static Type makeArray(TypeKind Elem, ClassId C = kNoClass) {
    switch (Elem) {
    case TypeKind::Int:
      return {TypeKind::IntArray, kNoClass};
    case TypeKind::Float:
      return {TypeKind::FloatArray, kNoClass};
    case TypeKind::Ref:
      return {TypeKind::RefArray, C};
    default:
      return {TypeKind::IntArray, kNoClass};
    }
  }

  bool isArray() const {
    return Kind == TypeKind::IntArray || Kind == TypeKind::FloatArray ||
           Kind == TypeKind::RefArray;
  }
};

/// Returns a printable name for \p K ("int", "float", "ref", ...).
const char *typeKindName(TypeKind K);

} // namespace lud

#endif // LUD_IR_TYPE_H
