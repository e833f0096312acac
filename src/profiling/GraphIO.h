//===- profiling/GraphIO.h - Gcost serialization ---------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of the abstract dependence graph. Section 3.2 notes
/// the analyses "could be easily migrated to an offline heap analysis tool
/// ... the JVM only needs to write Gcost to external storage": this is
/// that hand-off. The format is line-oriented and versioned:
///
///   ludgraph 2 module=<hash> slots=<s>
///   node <id> <instr> <domain> <freq> <consumer> <effect> <tag> <slot>
///        <reads> <writes> <alloc> <storedref>     (one line per node)
///   edge <from> <to>
///   refedge <store> <alloc>
///   allocnode <tag> <node>
///   writer <tag> <slot> <node...>
///   reader <tag> <slot> <node...>
///   refchild <tag> <slot> <childtag...>
///   end <checksum>
///
/// <hash> binds the dump to its program: the 64-bit FNV-1a hash of the
/// printed module that run manifests carry (trace::moduleHash), which
/// lud-analyze compares before it reads a node. <checksum> is the FNV-1a
/// hash of every byte before the trailer line, so an edited, truncated or
/// bit-flipped dump fails to parse instead of describing another profile.
/// Both are 16 lowercase hex digits.
///
/// Everything the offline analyses (CostModel, DeadValues, Report) need is
/// preserved; node ids are stable across a round trip.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_GRAPHIO_H
#define LUD_PROFILING_GRAPHIO_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lud {

class DepGraph;
class FrozenGraph;
class OutStream;

/// Writes \p G in the versioned text format, bound to the program whose
/// trace::moduleHash is \p ModuleHash (0 for a graph tied to no program,
/// which lud-analyze refuses). The sealed representation already holds
/// every record in canonical order.
void writeGraph(const FrozenGraph &G, OutStream &OS, uint64_t ModuleHash = 0);

/// Parses a graph written by writeGraph, and stores the module hash its
/// header names in \p ModuleHash when given. Returns null and fills \p
/// Errors with a line-numbered diagnostic on malformed input: another
/// version, a missing or wrong trailer, or a bad record.
std::unique_ptr<DepGraph> readGraph(std::string_view Text,
                                    std::vector<std::string> &Errors,
                                    uint64_t *ModuleHash = nullptr);

} // namespace lud

#endif // LUD_PROFILING_GRAPHIO_H
