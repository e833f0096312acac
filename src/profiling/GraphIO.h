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
///   ludgraph 1
///   slots <s>
///   node <id> <instr> <domain> <freq> <consumer> <effect> <tag> <slot>
///        <reads> <writes> <alloc> <storedref>     (one line per node)
///   edge <from> <to>
///   refedge <store> <alloc>
///   allocnode <tag> <node>
///   writer <tag> <slot> <node...>
///   reader <tag> <slot> <node...>
///   refchild <tag> <slot> <childtag...>
///   end
///
/// Everything the offline analyses (CostModel, DeadValues, Report) need is
/// preserved; node ids are stable across a round trip.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_GRAPHIO_H
#define LUD_PROFILING_GRAPHIO_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lud {

class DepGraph;
class FrozenGraph;
class OutStream;

/// Writes \p G in the versioned text format. The sealed representation
/// already holds every record in canonical order.
void writeGraph(const FrozenGraph &G, OutStream &OS);

/// Parses a graph written by writeGraph. Returns null and fills \p Errors
/// on malformed input.
std::unique_ptr<DepGraph> readGraph(std::string_view Text,
                                    std::vector<std::string> &Errors);

} // namespace lud

#endif // LUD_PROFILING_GRAPHIO_H
