//===- profiling/ClientSet.h - Typed client-analysis selection -*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ClientSet: which client analyses (copy, nullness, typestate) a profiling
/// session runs beside the slicing substrate. The value type replaces the
/// raw `uint32_t Clients` bitmask + loose `kClient*` enum that used to live
/// in workloads/Driver.h, keeping the exact bit layout (copy = bit 0,
/// nullness = bit 1, typestate = bit 2) so recorded configurations and
/// fuzzer repro lines stay meaningful across the migration.
/// SessionConfig, the cli option parsing, the Report printers, and the
/// service's per-session client selection all speak this one type.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_CLIENTSET_H
#define LUD_PROFILING_CLIENTSET_H

#include <cstdint>
#include <string>

namespace lud {

class ClientSet {
public:
  /// The three client analyses, as single-bit values.
  enum class Client : uint32_t {
    Copy = 1u << 0,
    Nullness = 1u << 1,
    Typestate = 1u << 2,
  };

  constexpr ClientSet() = default;
  constexpr ClientSet(Client C) : Mask(uint32_t(C)) {}
  /// Bridge from the raw bitmask encoding (same bit values as the wire
  /// and CLI forms); unknown bits are dropped so every ClientSet is
  /// canonical.
  constexpr explicit ClientSet(uint32_t Bits) : Mask(Bits & kAllBits) {}

  static constexpr ClientSet none() { return ClientSet(); }
  static constexpr ClientSet copy() { return Client::Copy; }
  static constexpr ClientSet nullness() { return Client::Nullness; }
  static constexpr ClientSet typestate() { return Client::Typestate; }
  static constexpr ClientSet all() { return ClientSet(kAllBits); }

  /// The underlying bits — the wire/CLI-stable encoding.
  constexpr uint32_t bits() const { return Mask; }
  constexpr bool empty() const { return Mask == 0; }
  constexpr bool any() const { return Mask != 0; }
  constexpr explicit operator bool() const { return any(); }

  constexpr bool has(Client C) const { return (Mask & uint32_t(C)) != 0; }
  constexpr bool hasCopy() const { return has(Client::Copy); }
  constexpr bool hasNullness() const { return has(Client::Nullness); }
  constexpr bool hasTypestate() const { return has(Client::Typestate); }

  constexpr ClientSet &operator|=(ClientSet O) {
    Mask |= O.Mask;
    return *this;
  }
  friend constexpr ClientSet operator|(ClientSet A, ClientSet B) {
    return ClientSet(A.Mask | B.Mask);
  }
  friend constexpr ClientSet operator&(ClientSet A, ClientSet B) {
    return ClientSet(A.Mask & B.Mask);
  }
  friend constexpr bool operator==(ClientSet A, ClientSet B) {
    return A.Mask == B.Mask;
  }
  friend constexpr bool operator!=(ClientSet A, ClientSet B) {
    return A.Mask != B.Mask;
  }

private:
  static constexpr uint32_t kAllBits = 0x7;
  uint32_t Mask = 0;
};

/// Parses a --clients specification — "all", "none", or a comma-separated
/// list of copy, nullness, typestate — OR-ing the named clients into
/// \p Set. "none" adds nothing and must be the only element. Returns false
/// with \p Err set on an unknown name.
inline bool parseClientSet(const std::string &List, ClientSet &Set,
                           std::string &Err) {
  if (List == "none")
    return true;
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = List.size();
    std::string Name = List.substr(Pos, Comma - Pos);
    if (Name == "copy")
      Set |= ClientSet::copy();
    else if (Name == "nullness")
      Set |= ClientSet::nullness();
    else if (Name == "typestate")
      Set |= ClientSet::typestate();
    else if (Name == "all")
      Set |= ClientSet::all();
    else if (Name == "none") {
      Err = "client 'none' must be the only element of the list";
      return false;
    } else {
      Err = "unknown client '" + Name +
            "' (valid: copy, nullness, typestate, all, none)";
      return false;
    }
    Pos = Comma + 1;
  }
  return true;
}

/// Renders \p Set in the spelling parseClientSet accepts: "none", "all",
/// or a comma-separated subset — so a printed configuration (fuzzer repro
/// lines, daemon session listings) round-trips through --clients=.
inline std::string clientSetName(ClientSet Set) {
  if (Set.empty())
    return "none";
  if (Set == ClientSet::all())
    return "all";
  std::string Out;
  auto Append = [&Out](const char *Name) {
    if (!Out.empty())
      Out += ',';
    Out += Name;
  };
  if (Set.hasCopy())
    Append("copy");
  if (Set.hasNullness())
    Append("nullness");
  if (Set.hasTypestate())
    Append("typestate");
  return Out;
}

} // namespace lud

#endif // LUD_PROFILING_CLIENTSET_H
