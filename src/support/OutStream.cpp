//===- support/OutStream.cpp - Lightweight output streams ----------------===//

#include "support/OutStream.h"

#include <cinttypes>
#include <cstring>

using namespace lud;

OutStream::~OutStream() = default;

OutStream &OutStream::operator<<(int64_t N) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%" PRId64, N);
  writeBytes(Buf, Len);
  return *this;
}

OutStream &OutStream::operator<<(uint64_t N) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%" PRIu64, N);
  writeBytes(Buf, Len);
  return *this;
}

OutStream &OutStream::operator<<(double D) {
  char Buf[64];
  int Len = std::snprintf(Buf, sizeof(Buf), "%g", D);
  writeBytes(Buf, Len);
  return *this;
}

OutStream &OutStream::printFixed(double D, unsigned Digits) {
  char Buf[64];
  int Len = std::snprintf(Buf, sizeof(Buf), "%.*f", int(Digits), D);
  writeBytes(Buf, Len);
  return *this;
}

OutStream &OutStream::padded(std::string_view Str, unsigned Width) {
  for (size_t I = Str.size(); I < Width; ++I)
    *this << ' ';
  return *this << Str;
}

OutStream &lud::outs() {
  static FileOutStream Stream(stdout);
  return Stream;
}

OutStream &lud::errs() {
  static FileOutStream Stream(stderr);
  return Stream;
}

bool lud::readFileBytes(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[65536];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return true;
}
