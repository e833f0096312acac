//===- service/Client.cpp - lud-serve client helpers -----------------------===//

#include "service/Client.h"

using namespace lud;
using namespace lud::serve;

//===----------------------------------------------------------------------===//
// ServeClient
//===----------------------------------------------------------------------===//

bool ServeClient::connect(const std::string &SocketPath, std::string &Err) {
  ignoreSigpipe();
  Conn = connectUnix(SocketPath, Err);
  if (!Conn)
    return false;
  In = std::make_unique<SocketReader>(Conn.get());
  return true;
}

bool ServeClient::command(const std::string &Line, std::string &Reply,
                          std::string &Err) {
  if (!Conn) {
    Err = "not connected";
    return false;
  }
  if (!writeAll(Conn.get(), Line + "\n")) {
    Err = "connection lost";
    return false;
  }
  if (!In->readLine(Reply)) {
    Err = "daemon closed the connection";
    return false;
  }
  if (Reply.rfind("ERR ", 0) == 0) {
    Err = Reply.substr(4);
    return false;
  }
  if (Reply.rfind("OK", 0) != 0) {
    Err = "malformed reply: " + Reply;
    return false;
  }
  return true;
}

static bool replyField(const std::string &Reply, const std::string &Key,
                       uint64_t &V) {
  size_t At = Reply.find(Key + "=");
  if (At == std::string::npos)
    return false;
  At += Key.size() + 1;
  V = 0;
  bool Any = false;
  while (At < Reply.size() && Reply[At] >= '0' && Reply[At] <= '9') {
    V = V * 10 + uint64_t(Reply[At++] - '0');
    Any = true;
  }
  return Any;
}

bool ServeClient::open(std::string &Err) {
  std::string Reply;
  if (!command("OPEN", Reply, Err))
    return false;
  return replyField(Reply, "id", Id);
}

bool ServeClient::open(ClientSet Clients, std::string &Err) {
  std::string Reply;
  if (!command("OPEN clients=" + clientSetName(Clients), Reply, Err))
    return false;
  return replyField(Reply, "id", Id);
}

bool ServeClient::feed(const std::string &Bytes, std::string &Err) {
  if (!Conn) {
    Err = "not connected";
    return false;
  }
  if (!writeAll(Conn.get(), "FEED " + std::to_string(Bytes.size()) + "\n") ||
      !writeAll(Conn.get(), Bytes)) {
    Err = "connection lost";
    return false;
  }
  std::string Reply;
  if (!In->readLine(Reply)) {
    Err = "daemon closed the connection";
    return false;
  }
  if (Reply.rfind("ERR ", 0) == 0) {
    Err = Reply.substr(4);
    return false;
  }
  return Reply.rfind("OK", 0) == 0;
}

bool ServeClient::done(std::string &Err) {
  std::string Reply;
  if (!command("DONE", Reply, Err))
    return false;
  replyField(Reply, "events", Events);
  replyField(Reply, "segments", Segments);
  return true;
}

void ServeClient::close() {
  In.reset();
  Conn.reset();
}

//===----------------------------------------------------------------------===//
// httpGet
//===----------------------------------------------------------------------===//

bool lud::serve::httpGet(uint16_t Port, const std::string &Path,
                         std::string &Body, std::string &Err) {
  ignoreSigpipe();
  Fd Conn = connectTcp(Port, Err);
  if (!Conn)
    return false;
  if (!writeAll(Conn.get(), "GET " + Path + " HTTP/1.0\r\n\r\n")) {
    Err = "connection lost";
    return false;
  }
  SocketReader In(Conn.get());
  std::string Status;
  if (!In.readLine(Status)) {
    Err = "daemon closed the connection";
    return false;
  }
  // Skip headers up to the blank line; HTTP/1.0 + Connection: close means
  // the body is simply everything until EOF.
  std::string Line;
  while (In.readLine(Line)) {
    if (Line == "\r" || Line.empty())
      break;
  }
  Body.clear();
  std::string Chunk;
  while (In.readExact(Chunk, 1))
    Body += Chunk;
  // readExact over-reads one byte at a time only at the tail; bulk bytes
  // arrive through the reader's internal 16K buffer, so this stays O(n).
  bool Ok = Status.rfind("HTTP/1.0 200", 0) == 0 ||
            Status.rfind("HTTP/1.1 200", 0) == 0;
  if (!Ok)
    Err = "HTTP status: " + Status + (Body.empty() ? "" : (" — " + Body));
  return Ok;
}
