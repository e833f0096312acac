//===- service/Client.h - lud-serve client helpers -------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the daemon's wire protocol: a small ingest-protocol
/// speaker (used by `lud-serve --send` and the end-to-end tests) and a
/// one-shot HTTP GET.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SERVICE_CLIENT_H
#define LUD_SERVICE_CLIENT_H

#include "profiling/ClientSet.h"
#include "service/Socket.h"

#include <cstdint>
#include <memory>
#include <string>

namespace lud {
namespace serve {

/// Speaks the ingest protocol over one connection / one session.
/// Methods return false with the daemon's ERR text (or a transport
/// diagnostic) in \p Err.
class ServeClient {
public:
  ServeClient() = default;

  bool connect(const std::string &SocketPath, std::string &Err);
  /// OPEN [clients=...]; fills id().
  bool open(std::string &Err);
  bool open(ClientSet Clients, std::string &Err);
  /// FEED one frame of whole manifest records.
  bool feed(const std::string &Bytes, std::string &Err);
  /// DONE; fills events()/segments() from the daemon's reply.
  bool done(std::string &Err);
  void close();

  uint64_t id() const { return Id; }
  uint64_t events() const { return Events; }
  uint64_t segments() const { return Segments; }

private:
  bool command(const std::string &Line, std::string &Reply, std::string &Err);

  Fd Conn;
  std::unique_ptr<SocketReader> In;
  uint64_t Id = 0;
  uint64_t Events = 0;
  uint64_t Segments = 0;
};

/// GET http://127.0.0.1:\p Port\p Path; \p Body gets the response body.
/// False (with \p Err) on transport failure or a non-200 status.
bool httpGet(uint16_t Port, const std::string &Path, std::string &Body,
             std::string &Err);

} // namespace serve
} // namespace lud

#endif // LUD_SERVICE_CLIENT_H
